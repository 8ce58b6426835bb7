"""Run one polya-net command in a child process and fail if its peak RSS
passes a bound.

    python .github/peak_rss.py SECONDS MAX_MB MESSAGE [--quiet] -- ARGS...

runs ``timeout SECONDS python -W error::RuntimeWarning -m polya_net.cli
ARGS...`` (so a numpy RuntimeWarning fails the run), prints the peak RSS of
the largest child process (a forked worker included), and exits with
MESSAGE if that peak is above MAX_MB.  ``--quiet`` discards the command's
standard output.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> None:
    seconds, max_mb, message, *rest = argv
    quiet = rest[:1] == ["--quiet"]
    if rest[quiet:quiet + 1] != ["--"]:
        sys.exit(__doc__)
    subprocess.run(["timeout", seconds, sys.executable, "-W", "error::RuntimeWarning",
                    "-m", "polya_net.cli", *rest[quiet + 1:]],
                   check=True, stdout=subprocess.DEVNULL if quiet else None)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB")
    if peak_mb > float(max_mb):
        sys.exit(message)


if __name__ == "__main__":
    main(sys.argv[1:])
