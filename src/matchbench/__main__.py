"""``python -m matchbench``: the same command line as the ``matchbench`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
