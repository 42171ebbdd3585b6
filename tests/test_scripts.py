import os
import subprocess
import sys
from pathlib import Path

from dcspp_yolo.ppm import ppm_read

ROOT = Path(__file__).resolve().parent.parent


def test_overfit_script_runs_and_renders(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "overfit_synthetic.py"),
         "--images", "4", "--iterations", "2", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    rendered = sorted((tmp_path / "rendered").iterdir())
    assert [p.name for p in rendered] == [f"img_{i:04d}.ppm" for i in range(4)]
    for p in rendered:
        assert ppm_read(p).shape == (96, 96, 3)
