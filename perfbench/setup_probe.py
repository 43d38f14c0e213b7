"""Set-up time of a fresh process: import abelcover and abelcover.cli,
then parse and validate each cover document.  Prints the seconds.

    python3 setup_probe.py SRC_DIR COVER.json...

Nothing but sys and time is imported before the clock starts, so the
standard-library modules abelcover needs are part of the measurement.
"""
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import abelcover  # noqa: E402
import abelcover.cli  # noqa: E402

for path in sys.argv[2:]:
    abelcover.validate(abelcover.cli.load_cover_document(path))
print(repr(time.perf_counter() - start))
