"""Set-up time of a fresh interpreter: import dunkl_dihedral, then finish
one op.  run.py starts this script several times per run.

    python3 bench/setup_probe.py SRC_DIR ARGV_JSON

prints {"rc": <exit code of the op>, "seconds": <import + op>} on stdout.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from dunkl_dihedral import cli  # noqa: E402

rc = cli.main(json.loads(sys.argv[2]), out=io.StringIO())
print(json.dumps({"rc": rc, "seconds": time.perf_counter() - T0}))
