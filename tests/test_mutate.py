"""Every mutation site of ``mutate.MODULES`` has a current verdict in
``tests/mutants.json``, and every survivor is allowed with its reason.

These tests run no mutant: they parse the modules' and the tests' AST and
read the committed verdicts and ledger.  ``python tests/mutate.py --stale``
judges again the sites of an edited function, and the kills of an edited
check.
"""

import json
import re

import mutate

_STALE = "judge them again: python tests/mutate.py --stale"

# "module.qualname: line: operator" -> (reason, the interval of values that
# gives the same bytes, the ROADMAP item or test that owns it)
_NEVER_DRAWN = "a guard against a Gaussian draw of probability zero, which no product run makes"
ALLOWED_SURVIVORS = {
    "discretize.orientation_scan: refine_tol: float = 1e-6,: double 1e-6 to 2e-06": (
        "criterion 10's monotone path, the one product call that takes the default, has no "
        "sign change to bisect; its scalar path passes refine_tol itself",
        "any positive tolerance", "ROADMAP item 33"),
    "monotone._pair_quotients: ok = dist2 >= 1e-24: double 1e-24 to 2e-24": (
        "the degenerate-pair cutoff: no product run samples two points that close",
        "any cutoff from 0 up to the smallest squared pair distance a product run samples",
        "ROADMAP item 33"),
    "monotone.ball_samples: norms[norms == 0.0] = 1.0: double 1.0 to 2.0": (
        _NEVER_DRAWN + ": an all-zero row", "any nonzero finite value (a zero row stays zero)",
        "ROADMAP item 33"),
    "operators._orthonormal: return np.abs(rows @ rows.T - np.eye(len(rows))).max(initial=0.0)"
    " <= 1e-10: double 1e-10 to 2e-10": (
        "a guard on outside input: the orthonormality tolerance of a given frame, whose "
        "refusal is the caller's",
        "from the largest defect of a product frame (rounding) to the smallest defect of a "
        "refused one", "ROADMAP item 16"),
    "operators.orthonormal_rows: signs[signs == 0] = 1.0: double 1.0 to 2.0": (
        _NEVER_DRAWN + ": a zero on the diagonal of R", "any value", "ROADMAP item 33"),
}


def _recorded() -> dict:
    return json.loads(mutate.VERDICTS.read_text())


def test_every_site_has_a_current_verdict():
    now, recorded = mutate.current_sites(), _recorded()
    stale = mutate.stale_keys(now, recorded)
    gone = sorted(set(recorded) - set(now))
    assert not stale and not gone, "\n  ".join(
        ["sites with no verdict in tests/mutants.json, or one judged with another "
         "function source or killing check:", *stale,
         "verdicts of sites that are gone:", *gone, _STALE])


def test_every_kill_names_a_check_that_exists():
    ledger = json.loads(mutate.LEDGER.read_text())
    lost = sorted(f"{key}: {entry['verdict']}" for key, entry in _recorded().items()
                  if entry["verdict"] != "survivor" and mutate.check(entry["verdict"], ledger) is None)
    assert not lost, "\n  ".join(["kills whose test or ledger entry is gone:", *lost, _STALE])


def test_a_check_is_gone_with_its_test_case_or_ledger_entry():
    ledger = json.loads(mutate.LEDGER.read_text())
    leaky = "tests/test_operators.py::TestActivations::test_leaky_relu_is_the_select_to_the_bit"
    assert mutate.check(f"{leaky}[1.5]", ledger) is not None
    assert mutate.check(f"{leaky}[2.5]", ledger) is None  # no such case
    assert mutate.check(f"{leaky}_gone[1.5]", ledger) is None
    assert mutate.check("tests/test_gone.py::test_x", ledger) is None
    assert mutate.check("ledger criteria/4", ledger) is not None
    assert mutate.check("ledger criteria/99", ledger) is None
    moved = {**ledger, "criteria": {**ledger["criteria"], "4": "0" * 64}}
    assert mutate.check("ledger criteria/4", moved) != mutate.check("ledger criteria/4", ledger)
    assert mutate.check("ledger", moved) != mutate.check("ledger", ledger)


def test_every_survivor_is_allowed():
    survivors = {key for key, entry in _recorded().items() if entry["verdict"] == "survivor"}
    flagged = sorted(survivors - set(ALLOWED_SURVIVORS))
    assert not flagged, (
        "these mutants move no ledger byte and fail no test; delete the code, check "
        "it, or allow it with a reason:\n  " + "\n  ".join(flagged))
    stale = sorted(set(ALLOWED_SURVIVORS) - survivors)
    assert not stale, f"ALLOWED_SURVIVORS entries that name no survivor: {stale}"


def test_each_allowed_survivor_has_a_reason_an_interval_and_an_owner():
    for key, (reason, interval, owner) in ALLOWED_SURVIVORS.items():
        assert reason and interval, key
        assert re.fullmatch(r"ROADMAP item \d+|tests/test_\w+\.py::[\w:]+", owner), key


def test_the_site_lister_exempts_refusals_and_names_each_operator():
    source = (
        "def f(x, tol=1e-3):\n"
        '    """A docstring: 0.5 < 1.0 holds no site."""\n'
        "    if not 0.0 < x:\n"
        "        raise ValueError(x + 1.0)\n"
        "    assert x - 1 > 0\n"
        "    if x > 9:\n"
        "        y = x + 2.0\n"
        "        raise ValueError(y)\n"
        "    try:\n"
        "        x -= 0.5  # a comment\n"
        "    except ZeroDivisionError:\n"
        "        return x + 1.0\n"
        "    return x if x is not None else 0.0\n"
    )
    found = {site.key: mutate.mutant(source, site).splitlines()[site.line - 1]
             for site in mutate.sites(source, "m")}
    assert found == {
        "m.f: def f(x, tol=1e-3):: double 1e-3 to 0.002": "def f(x, tol=0.002):",
        "m.f: x -= 0.5: swap -= to +=": "        x += 0.5  # a comment",
        "m.f: x -= 0.5: double 0.5 to 1.0": "        x -= 1.0  # a comment",
        "m.f: return x if x is not None else 0.0: flip is not to is":
            "    return x if x is None else 0.0",
    }
