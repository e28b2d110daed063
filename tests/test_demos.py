"""Every demo runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import coexsim

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run_demo(name: str) -> str:
    # the demo imports the same coexsim this test imported
    package_root = str(Path(coexsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_signalling_walkthrough_trace_passes_the_audit():
    out = _run_demo("signalling_walkthrough.py")
    assert "conformance: PASS  (23 transitions, 1 grants, 1 cycles)" in out


def test_superframe_anatomy_runs():
    _run_demo("superframe_anatomy.py")


def test_dcf_vs_fixed_point_tracks_the_model():
    out = _run_demo("dcf_vs_fixed_point.py")
    assert "  30   0.025890   0.532661       40.266     40.361   +0.24" in out


def test_scheme_comparison_reports_the_hap_gain():
    out = _run_demo("scheme_comparison.py")
    assert "hap-sa: total 1.36x the pure Wi-Fi channel" in out
