import math
import re

import numpy as np
import pytest

from rieszbounds import spectra

_CRITERIA = {
    1: "comparison table 1 reproduced (30 values, 0.1%, < 1 s)",
    2: "coefficient-ratio table reproduced (5 significant figures, < 1 s)",
    3: "comparison table 2 reproduced (0.05%, < 1 s)",
    4: "core inequality suite passes; negative control fails (< 60 s)",
    5: "corollary suite passes on >= 10^4 grid points (< 120 s)",
    6: "Legendre transform closed form == breakpoint oracle (200 random w)",
    7: "special-function accuracy (Bessel zeros, H_2, Gamma, L_cl identity)",
    8: "secant-slope constant holds on 10^4 samples and is sharp",
    9: "Weyl asymptotic sanity for the counting function",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_criterion_(\d+)", nodeid)
            if m:
                n = int(m.group(1))
                outcomes[n] = "PASS" if status == "passed" else "FAIL"
    if outcomes:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for n in sorted(outcomes):
            terminalreporter.write_line(
                f"  criterion {n}: {outcomes[n]} - {_CRITERIA[n]}")


@pytest.fixture(scope="session")
def square_pi():
    """Box [pi, pi]: eigenvalues m^2 + n^2 -> 2, 5, 5, 8, 10, 10, ..."""
    return spectra.box_spectrum([math.pi, math.pi], 200.0)


@pytest.fixture(scope="session")
def unit_square():
    return spectra.box_spectrum([1.0, 1.0], 5000.0)


@pytest.fixture(scope="session")
def ball3():
    return spectra.ball_spectrum(3, 1.0, 500.0)


@pytest.fixture(scope="session")
def writer_cases():
    """Spectra whose runs of equal eigenvalues meet the writer's chunks in
    every way: a run longer than a chunk, a run across a chunk edge, one
    value throughout, no repeats, one eigenvalue, runs one ulp apart, the
    3-ball and the disk."""
    chunk = spectra._WRITE_CHUNK
    across = np.arange(1.0, 2 * chunk + 1) / 4
    across[chunk - 3:chunk + 4] = across[chunk - 3]
    values = {
        "long_run": np.repeat([1.5, 2.0, 3.25], [3, 2 * chunk + 7, 5]),
        "run_across_edge": across,
        "all_equal": np.full(chunk + 10, 7.25),
        "no_repeats": np.sort(
            np.random.default_rng(3).uniform(1.0, 1e6, 2 * chunk + 1)),
        "single": np.array([math.pi ** 2]),
        "one_ulp_apart": np.repeat(
            (np.full(50, 1234.5).view(np.int64) + np.arange(50)).view(float),
            3),
    }
    cases = {name: spectra.Spectrum(
        dimension=2, eigenvalues=ev, complete_below=1e6,
        domain=spectra.DomainSpec("file", 2), volume=0.1)
        for name, ev in values.items()}
    cases["ball3"] = spectra.ball_spectrum(3, 1.0, 1e4)
    cases["disk"] = spectra.ball_spectrum(2, 1.0, 1e5)
    return cases
