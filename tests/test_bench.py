import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    # the benchmark reads plans (`checkpoints`, `actions`, `unclean_nodes`,
    # `dispositions`) and calls the strategies by name: its self-test runs
    # every job kind on a reduced configuration, writing only bench/out/
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
