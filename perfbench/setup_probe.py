"""Set-up probe: import projlind, load and validate every config given on
the command line, then print the CLOCK_MONOTONIC time at which that was
done. The caller subtracts the time it started this process."""

import sys
import time

import projlind

for path in sys.argv[1:]:
    projlind.load_config(path)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
