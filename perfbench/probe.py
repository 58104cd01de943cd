"""Set-up probe run in a fresh interpreter: import gelsolve.cli and build the
run's measures.  Usage: python3 perfbench/probe.py SRC_DIR SPECS_JSON"""
import json
import sys

sys.path.insert(0, sys.argv[1])

import gelsolve.cli  # noqa: E402,F401
from gelsolve.measures import arm_measure_from_config, mass_measure_from_config  # noqa: E402

with open(sys.argv[2]) as f:
    for spec in json.load(f):
        if spec["type"] == "arm-law":
            arm_measure_from_config(spec)
        else:
            mass_measure_from_config(spec)
