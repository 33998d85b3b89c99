import re

import pytest

_ACCEPTANCE_RESULTS: dict[str, str] = {}
_CRITERION_RE = re.compile(r"test_criterion_(\d+)([a-z_]*)")

ACCEPTANCE_TITLES = {
    1: "toy replay golden values",
    2: "lower-bound rate regression",
    3: "frontier coverage property suite",
    4: "oracle equivalence (Exact argmax)",
    5: "surrogate domination + kappa tightening",
    6: "fallback work bound",
    7: "deterministic replay + mutation detection",
    8: "adversarial soundness split",
    9: "qualitative desk-scale orderings",
    10: "LSE truncation soundness",
    11: "budget non-interference + RDP conversion",
}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid or report.when != "call":
        return
    match = _CRITERION_RE.search(report.nodeid)
    if not match:
        return
    outcome = report.outcome.upper()
    if hasattr(report, "wasxfail"):
        outcome = "XFAIL (documented spec-literal discrepancy)"
    _ACCEPTANCE_RESULTS[match.group(1) + match.group(2)] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_ACCEPTANCE_RESULTS,
                      key=lambda k: (int(re.match(r"\d+", k).group()), k)):
        num = int(re.match(r"\d+", key).group())
        title = ACCEPTANCE_TITLES.get(num, "")
        suffix = key[len(str(num)):].strip("_")
        label = f"criterion {num}" + (f" [{suffix}]" if suffix else "")
        terminalreporter.write_line(
            f"[PRIMARY] {label}: {_ACCEPTANCE_RESULTS[key]} — {title}")


@pytest.fixture
def toy():
    from racecert.generators import TOY_SCRIPTED, toy_graph, toy_mtau
    from racecert.prefix_dag import compile_dag
    from racecert.search import RunConfig

    graph, cert = compile_dag(toy_graph())
    assert cert.ok
    cfg = RunConfig(mtau=toy_mtau(), scripted_uniforms=dict(TOY_SCRIPTED),
                    seed=7)
    return graph, cfg


@pytest.fixture(scope="session")
def toy_ledgers(tmp_path_factory):
    """A directory holding ``toy-exact.ndjson`` and ``toy-surrogate.ndjson``
    as ``racecert toy-replay`` writes them: tamper tests start from the
    engine's own ledgers, so only the golden contract tests read
    ``tests/data/``."""
    from racecert.cli import main

    out = tmp_path_factory.mktemp("toy-ledgers")
    assert main(["toy-replay", "--out", str(out)]) == 0
    return out
