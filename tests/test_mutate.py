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
_TRACER = ("read only by bench/tracer.py, until its counts come from the run itself "
           "(ROADMAP item 1, step B)")
_DROP = ("the threshold below which a block is the identity and is dropped: every product "
         "block moves by far more, or by nothing")
_ZERO_GAP = "any tolerance from rounding up to the smallest nonzero value a product run tests"
ALLOWED_SURVIVORS = {
    'cli.run_monotone_check: "pass": bool(worst >= floor - 1e-6),: double 1e-6 to 2e-06': (
        "the slack of the sampled worst quotient against its floor: no product run's worst "
        "lies within 2e-6 of its floor", "any slack below the smallest gap between a product "
        "run's worst quotient and its floor", "ROADMAP item 32"),
    "decompose.choose_w: basis = vt[sv > 1e-10]: double 1e-10 to 2e-10": (
        "the SVD cutoff of the stacked singular directions: a product stack's singular values "
        "are O(1) or rounding", _ZERO_GAP, "ROADMAP item 33"),
    **{f"decompose.{owner}.alpha: return None if self.kappa >= 1.0 else 1.0 - self.kappa: "
       f"{operator}": (_TRACER, "any value", "ROADMAP item 1")
       for owner in ("TailBlock", "ScalingPath")
       for operator in ("swap - to +", "double 1.0 to 2.0", "double 1.0 to 2.0 (2)")},
    "decompose.path_blocks: if lin_dev <= 1e-12 and r0 <= 1e-12:: double 1e-12 to 2e-12": (
        "the linear shortcut's rounding tolerance on f − Df|₀: a product core is linear to "
        "rounding or nonlinear by far more", _ZERO_GAP, "ROADMAP item 33"),
    "decompose.path_blocks: if lin_dev <= 1e-12 and r0 <= 1e-12:: double 1e-12 to 2e-12 (2)": (
        "the linear shortcut's rounding tolerance on ‖f(0)‖: a product core's f(0) is 0 or "
        "far from it", _ZERO_GAP, "ROADMAP item 33"),
    "decompose.path_blocks: while ts[-1] < 1.0 - 1e-12:: double 1e-12 to 2e-12": (
        "the t-grid's end tolerance: no product grid point falls within 2e-12 below 1",
        "any tolerance below the distance to 1 of a product grid's last inner point",
        "ROADMAP item 33"),
    "decompose.path_blocks: drop_tol = max(1e-10, 4.0 * tol): double 1e-10 to 2e-10": (
        _DROP, _ZERO_GAP, "ROADMAP item 33"),
    "decompose.path_blocks: drop_tol = max(1e-10, 4.0 * tol): double 4.0 to 8.0": (
        _DROP, "any factor that keeps the threshold below the smallest moving block's "
        "deviation", "ROADMAP item 33"),
    "decompose._cos_root: theta = np.arccos(np.clip(c, -1.0, 1.0)): double 1.0 to 2.0 (2)": (
        "the clip of cos θ at 1 against rounding: no eigenvalue of a product rotation's "
        "symmetric part rounds above 1", "any clip of at least 1", "ROADMAP item 33"),
    "decompose._complex_structure: keep = int(np.count_nonzero(sv > 1e-10)): "
    "double 1e-10 to 2e-10": (
        "the SVD cutoff of the planes turned through −U: their singular values are sin θ "
        "of a product rotation, or rounding", _ZERO_GAP, "ROADMAP item 33"),
    "decompose._complex_structure: keep += keep % 2: swap += to -=": (
        "pairs a skew matrix's singular values again when a pair straddles the cutoff, "
        "which no product rotation has", "any change of an odd count: every product count is "
        "even", "ROADMAP item 33"),
    "decompose.linear_path_blocks: if dev > 1e-14:: double 1e-14 to 2e-14": (
        "the shortcut past a positive part that is the identity to rounding",
        _ZERO_GAP, "ROADMAP item 33"),
    "decompose.linear_path_blocks: angles = angles[angles > 1e-10][0::2]: "
    "double 1e-10 to 2e-10": (
        "the angle cutoff of a rotation plane against rounding", _ZERO_GAP, "ROADMAP item 33"),
    "decompose.decompose: if tail.deviation > max(1e-10, 4.0 * block_tol):: "
    "double 1e-10 to 2e-10": (_DROP, _ZERO_GAP, "ROADMAP item 33"),
    "decompose.decompose: if tail.deviation > max(1e-10, 4.0 * block_tol):: "
    "double 4.0 to 8.0": (
        _DROP, "any factor that keeps the threshold below the smallest kept tail's deviation",
        "ROADMAP item 33"),
    "galerkin.ConvexNonlinearity.__post_init__: r = np.linspace(-8.0, 8.0, 321): "
    "double 8.0 to 16.0": (
        "the grid of the constructor's sampled monotonicity check: the three built-in g's are "
        "monotone on every grid", "any grid radius", "ROADMAP item 33"),
    "galerkin.ConvexNonlinearity.__post_init__: r = np.linspace(-8.0, 8.0, 321): "
    "double 8.0 to 16.0 (2)": (
        "the grid of the constructor's sampled monotonicity check: the three built-in g's are "
        "monotone on every grid", "any grid radius", "ROADMAP item 33"),
    "galerkin._cos_integrals: moving = (np.sin(omega * s + phase) - np.sin(phase)) / "
    "np.where(still, 1.0, omega): double 1.0 to 2.0": (
        "a placeholder divisor for the rows at ω = 0, whose result the next line replaces",
        "any nonzero value", "ROADMAP item 33"),
    "discretize.orientation_scan: refine_tol: float = 1e-6,: double 1e-6 to 2e-06": (
        "criterion 10's two scans, the product calls, take the default: its monotone path "
        "has no sign change to bisect, and its scalar path's zero is the midpoint 0.5 of "
        "its grid cell [9/19, 10/19], the first point bisection tries, so the bracket is "
        "(0.5, 0.5) at any tolerance", "any positive tolerance", "ROADMAP item 33"),
    "acceptance.criterion_fixed_point_inversion: scaled = banach_solve(lambda v: v + q * v, "
    "xs, q, tol): swap + to -": (
        "x ↦ x − q·x is the same known answer as x ↦ x + q·x: B = ±q·Id shrinks every "
        "residual by exactly q, so every row's count and budget are the same",
        "either sign of B = ±q·Id", "ROADMAP item 34"),
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
    # an id of a name and a constant that holds a hyphen
    shares = "tests/test_cli.py::TestWorkerProcesses::test_an_error_in_either_share_leaves_no_child"
    assert mutate.check(f"{shares}[KeyError-child-share]", ledger) is not None
    assert mutate.check(f"{shares}[KeyError-child]", ledger) is None
    assert mutate.check("ledger criteria/4", ledger) is not None
    assert mutate.check("ledger criteria/99", ledger) is None
    moved = {**ledger, "criteria": {**ledger["criteria"], "4": "0" * 64}}
    assert mutate.check("ledger criteria/4", moved) != mutate.check("ledger criteria/4", ledger)
    # a failed ledger run is judged by the run, not by the digests it writes
    assert mutate.check("ledger", moved) == mutate.check("ledger", ledger)


def test_a_failed_ledger_run_goes_stale_with_the_script_or_a_table_it_replays(tmp_path):
    def edited(old: str, new: str, name: str) -> str:
        for script in ("test_digests.py", "test_reachability.py"):
            text = (mutate.ROOT / "tests" / script).read_text()
            (tmp_path / script).write_text(text.replace(old, new, 1) if script == name else text)
        return mutate.ledger_run_hash(tmp_path)

    now = mutate.ledger_run_hash()
    assert edited("", "", "test_digests.py") == now
    assert edited('"--jobs", "1"', '"--jobs", "2"', "test_digests.py") != now
    # BATCH, and a table that BATCH names
    assert edited('"seed": 71', '"seed": 72', "test_reachability.py") != now
    assert edited("[2, -1, 2]", "[2, -1, 2.0]", "test_reachability.py") != now
    # REFUSED, a table that the ledger does not replay
    assert edited('"y-length": (', '"y-length" : (', "test_reachability.py") == now


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
        '    print(f"x={x + 1.0:.3g}, {x > 2.0}")  # a message: an f-string holds no site\n'
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


def test_the_tier1_judge_needs_a_summary_and_no_failure():
    started = "tests/test_cli.py::TestBuildMemo::test_shared[2]"
    head = "=== test session starts ===\ntests/test_a.py::test_x PASSED [ 50%]\n"
    passed = head + "tests/test_a.py::test_y PASSED [100%]\n\n=== 2 passed in 0.52s ===\n"
    assert mutate.tier1_verdict(passed, 0) is None
    assert mutate.tier1_verdict(passed, 1) == "tier-1 exit 1"
    # a runner that left through os._exit(0) as its test started
    assert mutate.tier1_verdict(head + started + " ", 0) == started
    # ... while a forked child went on with the session and failed
    child = ("PASSED [ 75%]\ntests/test_a.py::test_z FAILED [100%]\n=== FAILURES ===\n"
             "=== short test summary info ===\nFAILED tests/test_a.py::test_z\n"
             "=== 1 failed, 3 passed in 5.20s ===\n")
    assert mutate.tier1_verdict(head + started + " " + child, 0) == "tests/test_a.py::test_z"
