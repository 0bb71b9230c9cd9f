"""The CLI's bytes, command by command: `tools/cli_identity.py --list` over its
fixed command matrix must print the listing committed beside it."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_identity.py"


def by_label(listing: str) -> dict[str, str]:
    """Each line of a listing under its label; the digest line's label is "sha256"."""
    return {line.split(" ", 1)[0]: line for line in listing.splitlines()}


def test_listing_matches_committed(tmp_path):
    out = tmp_path / "out"  # about 570 MB of outputs, removed however the run ends
    try:
        run = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), str(out), "--list"],
                             capture_output=True, text=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    assert run.returncode == 0, run.stderr
    expected, actual = by_label(TOOL.with_suffix(".list").read_text()), by_label(run.stdout)
    differ = [k for k in {**expected, **actual} if expected.get(k) != actual.get(k)]
    assert not differ, f"labels whose output changed: {', '.join(differ)}"
