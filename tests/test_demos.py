"""The narrative scripts under demos/ must keep running cleanly and print the
same bytes."""
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout
DEMO_PINS = {
    "01_canonical_words.py": "65b185c63e33dc07785e76714b6a07bc60f11e0cc4bd9fff8295f8dc91020109",
    "02_record_statistics.py": "1aef681a4b578c41f99916bb8f219a5440dfd36e7337819ebed504d86756258e",
    "03_distribution_series.py": "9de7f17f812fd309dd4329bdf950f1cd0168f8a738004da0c6ca67fd2d1cf27f",
    "04_total_closed_forms.py": "38f4318d7f2748f55c3e18e162daa250edbc1d47dadcce3acbfc5205b591a2e9",
    "05_partial_fractions.py": "0dedfe0dd7a3264e2a6add205c2b35e438009cd060c3c2f5c0192b6824959b88",
    "06_bell_asymptotics.py": "ccd384f996313c66142cb5f166ff126d067a9647f8ecedecd812a4975622c034",
}


def test_demo_scripts_exist():
    assert [script.name for script in DEMOS] == sorted(DEMO_PINS)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip()
    assert not proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_PINS[script.name]
