"""Run pipeline stages in a fresh process and report its peak memory.

Usage: ``python3 stages.py <config> <stage> [<stage> ...]``. Prints one
JSON line: the exit code of each ``landuse.cli.main`` call and the
process's peak resident set size in KiB.
"""

import json
import resource
import sys

from landuse.cli import main

if __name__ == "__main__":
    config, stages = sys.argv[1], sys.argv[2:]
    codes = [main([stage, "--config", config]) for stage in stages]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"codes": codes, "peak_rss_kb": peak}))
