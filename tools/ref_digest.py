"""Run the reference configuration in a fresh process and print one digest
of the files it writes.

The run is ``python -m paprsim.cli CONFIG -q --output-dir <temporary
directory>`` on this checkout's ``src``. The digest is one SHA-256 over the
files sorted by name, each fed as its name's and its bytes' lengths and
then the name and the bytes, so two checkouts whose runs wrote the same
files byte for byte print the same line. Prints the file count and the
digest; exits with the run's code if the run fails.

Usage: python tools/ref_digest.py [CONFIG]   (default: configs/reference.cfg)
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(directory: Path) -> tuple[int, str]:
    """The number of files under ``directory`` and one SHA-256 over their
    sorted relative names and their bytes."""
    files = sorted(path for path in directory.rglob("*") if path.is_file())
    sha = hashlib.sha256()
    for path in files:
        for part in (path.relative_to(directory).as_posix().encode("utf-8"), path.read_bytes()):
            sha.update(len(part).to_bytes(8, "big"))
            sha.update(part)
    return len(files), sha.hexdigest()


def main(argv: list[str]) -> int:
    config = Path(argv[0]).resolve() if argv else ROOT / "configs" / "reference.cfg"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory() as tmp:
        run = subprocess.run([sys.executable, "-m", "paprsim.cli", str(config), "-q",
                              "--output-dir", tmp], env=env, cwd=ROOT)
        if run.returncode != 0:
            return run.returncode
        count, sha = digest(Path(tmp))
    print(f"{count} files, sha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
