"""`python -m fanoperiods`: the same command line as the console script."""

from fanoperiods.cli import main

if __name__ == "__main__":
    main()
