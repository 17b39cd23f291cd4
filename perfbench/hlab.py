"""Run the hybridlab command line from the ``src`` tree of this checkout.

Usage (from the checkout root): python3 perfbench/hlab.py suite --config ...
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from hybridlab.cli import main  # noqa: E402

if __name__ == "__main__":
    main(prog_name="hybridlab")
