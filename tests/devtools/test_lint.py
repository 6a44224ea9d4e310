"""graphlint tests: each REP rule, suppression, CLI, and repo cleanliness."""

import json
import pathlib
import re
import textwrap
import tokenize

import pytest

from repro.devtools.lint import RULES, lint_paths, lint_source, main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

NN_PATH = "src/repro/nn/layers.py"
LIB_PATH = "src/repro/core/example.py"
RUNTIME_PATH = "src/repro/runtime/example.py"
TEST_PATH = "tests/core/test_example.py"


def rules_of(diagnostics):
    return [d.rule for d in diagnostics]


def lint_snippet(snippet, path=TEST_PATH):
    return lint_source(textwrap.dedent(snippet), path)


class TestREP001LegacyRandom:
    def test_legacy_call_flagged(self):
        diags = lint_snippet("import numpy as np\nx = np.random.rand(3)\n")
        assert rules_of(diags) == ["REP001"]
        assert "np.random.rand" in diags[0].message
        assert diags[0].line == 2

    def test_seed_call_flagged(self):
        diags = lint_snippet("import numpy as np\nnp.random.seed(0)\n")
        assert rules_of(diags) == ["REP001"]

    def test_generator_api_allowed(self):
        diags = lint_snippet(
            """\
            import numpy as np

            def f(rng: np.random.Generator):
                return np.random.default_rng(np.random.SeedSequence(1))
            """)
        assert diags == []

    def test_legacy_import_flagged(self):
        diags = lint_snippet("from numpy.random import rand\n")
        assert rules_of(diags) == ["REP001"]


class TestREP002BlindExcept:
    def test_bare_except_flagged(self):
        diags = lint_snippet(
            "try:\n    pass\nexcept:\n    pass\n")
        assert rules_of(diags) == ["REP002"]

    def test_blind_exception_without_reraise_flagged(self):
        diags = lint_snippet(
            "try:\n    pass\nexcept Exception:\n    x = 1\n")
        assert rules_of(diags) == ["REP002"]

    def test_blind_exception_with_reraise_allowed(self):
        diags = lint_snippet(
            "try:\n    pass\nexcept Exception:\n    raise\n")
        assert diags == []

    def test_specific_exception_allowed(self):
        diags = lint_snippet(
            "try:\n    pass\nexcept KeyError:\n    x = 1\n")
        assert diags == []


class TestREP003TensorMutation:
    def test_data_write_flagged(self):
        diags = lint_snippet("t.data = arr\n")
        assert rules_of(diags) == ["REP003"]

    def test_grad_augassign_flagged(self):
        diags = lint_snippet("t.grad += g\n")
        assert rules_of(diags) == ["REP003"]

    def test_subscript_write_flagged(self):
        diags = lint_snippet("t.data[0] = 1.0\n")
        assert rules_of(diags) == ["REP003"]

    @pytest.mark.parametrize("path", [
        "src/repro/nn/optim.py",
        "src/repro/nn/tensor.py",
    ])
    def test_sanctioned_modules_exempt(self, path):
        source = '"""Doc."""\nt.data = arr\n'
        assert lint_source(source, path) == []

    def test_gradcheck_no_longer_exempt(self):
        # gradcheck perturbations now flow through Tensor.assign_, so the
        # module lost its REP003 whitelist entry.
        source = '"""Doc."""\nt.data = arr\n'
        diags = lint_source(source, "src/repro/devtools/gradcheck.py")
        assert rules_of(diags) == ["REP003"]


class TestREP004DtypeLiteral:
    def test_float_literal_in_nn_flagged(self):
        diags = lint_snippet(
            '"""Doc."""\nimport numpy as np\nx = np.zeros(3).astype(np.float64)\n',
            path=NN_PATH)
        assert rules_of(diags) == ["REP004"]

    def test_dtype_string_kwarg_in_nn_flagged(self):
        diags = lint_snippet(
            '"""Doc."""\nimport numpy as np\nx = np.zeros(3, dtype="float32")\n',
            path=NN_PATH)
        assert rules_of(diags) == ["REP004"]

    def test_tensor_py_defines_the_convention(self):
        source = '"""Doc."""\nimport numpy as np\n_FLOAT = np.float64\n'
        assert lint_source(source, "src/repro/nn/tensor.py") == []

    def test_outside_nn_unrestricted(self):
        diags = lint_snippet(
            "import numpy as np\nx = np.zeros(3, dtype=np.float64)\n")
        assert diags == []


class TestREP005BackwardClosure:
    def test_make_without_local_backward_flagged(self):
        diags = lint_snippet(
            '''\
            """Doc."""

            def exp(x):
                """Doc."""
                return Tensor._make(x.data, (x,), _shared_backward)
            ''', path=NN_PATH)
        assert rules_of(diags) == ["REP005"]

    def test_make_with_local_backward_allowed(self):
        diags = lint_snippet(
            '''\
            """Doc."""

            def exp(x):
                """Doc."""
                def backward(g):
                    x._accumulate(g)
                return Tensor._make(x.data, (x,), backward)
            ''', path=NN_PATH)
        assert diags == []

    def test_outside_nn_unrestricted(self):
        diags = lint_snippet(
            "def helper(x):\n    return Tensor._make(x.data, (x,), cb)\n")
        assert diags == []


class TestREP006Docstrings:
    def test_missing_module_docstring_flagged(self):
        diags = lint_source("x = 1\n", LIB_PATH)
        assert rules_of(diags) == ["REP006"]

    def test_public_function_needs_docstring(self):
        diags = lint_source('"""Doc."""\ndef f():\n    pass\n', LIB_PATH)
        assert rules_of(diags) == ["REP006"]
        assert "'f'" in diags[0].message

    def test_private_function_exempt(self):
        diags = lint_source('"""Doc."""\ndef _f():\n    pass\n', LIB_PATH)
        assert diags == []

    def test_no_base_class_public_method_needs_docstring(self):
        diags = lint_source(
            '"""Doc."""\nclass C:\n    """Doc."""\n    def m(self):\n'
            "        pass\n", LIB_PATH)
        assert rules_of(diags) == ["REP006"]
        assert "C.m" in diags[0].message

    def test_subclass_methods_may_inherit_docstrings(self):
        diags = lint_source(
            '"""Doc."""\nclass C(Base):\n    """Doc."""\n    def m(self):\n'
            "        pass\n", LIB_PATH)
        assert diags == []

    def test_decorated_accessors_exempt(self):
        diags = lint_source(
            '"""Doc."""\nclass C:\n    """Doc."""\n    @property\n'
            "    def m(self):\n        return 1\n", LIB_PATH)
        assert diags == []

    def test_test_files_exempt(self):
        assert lint_source("def test_x():\n    pass\n", TEST_PATH) == []


class TestREP007CheckpointDeterminism:
    def test_wall_clock_assignment_into_sink_flagged(self):
        diags = lint_snippet(
            '''\
            """Doc."""
            import time

            def save(path, arrays):
                """Doc."""
                stamp = time.time()
                atomic_savez(path, {"stamp": stamp, "arrays": arrays})
            ''', path=RUNTIME_PATH)
        assert rules_of(diags) == ["REP007"]
        assert "time.time()" in diags[0].message

    def test_direct_source_argument_flagged(self):
        diags = lint_snippet(
            '''\
            """Doc."""
            import pickle
            import uuid

            def persist(fh, state):
                """Doc."""
                pickle.dump({"run": uuid.uuid4().hex, "state": state}, fh)
            ''', path=RUNTIME_PATH)
        assert rules_of(diags) == ["REP007"]

    def test_set_iteration_order_flagged(self):
        diags = lint_snippet(
            '''\
            """Doc."""

            def save(path, items):
                """Doc."""
                order = list(set(items))
                checkpoint_write(path, order)
            ''', path=RUNTIME_PATH)
        assert rules_of(diags) == ["REP007"]

    def test_sorted_set_is_deterministic(self):
        diags = lint_snippet(
            '''\
            """Doc."""

            def save(path, items):
                """Doc."""
                order = sorted(set(items))
                atomic_savez(path, {"order": order})
            ''', path=RUNTIME_PATH)
        assert diags == []

    def test_reassignment_clears_taint(self):
        diags = lint_snippet(
            '''\
            """Doc."""
            import time

            def save(path, seed):
                """Doc."""
                stamp = time.time()
                stamp = float(seed)
                atomic_savez(path, {"stamp": stamp})
            ''', path=RUNTIME_PATH)
        assert diags == []

    def test_source_without_sink_allowed(self):
        diags = lint_snippet(
            '''\
            """Doc."""
            import time

            def benchmark(fn):
                """Doc."""
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start
            ''', path=RUNTIME_PATH)
        assert diags == []

    def test_testlike_files_exempt(self):
        diags = lint_snippet(
            "import time\n"
            "def test_x():\n"
            "    atomic_savez('p', {'t': time.time()})\n")
        assert diags == []


class TestREP008RawEnvironmentQuery:
    def test_raw_attack_in_core_flagged(self):
        diags = lint_snippet(
            '''\
            """Doc."""

            def evaluate(env):
                """Doc."""
                return env.attack([[1, 2]])
            ''', path=LIB_PATH)
        assert rules_of(diags) == ["REP008"]
        assert "call_with_retry" in diags[0].message

    def test_self_env_receiver_flagged(self):
        diags = lint_snippet(
            '''\
            """Doc."""

            class Agent:
                """Doc."""

                def probe(self):
                    """Doc."""
                    return self.env.attack([[0]])
            ''', path=LIB_PATH)
        assert rules_of(diags) == ["REP008"]

    def test_retry_wrapped_function_sanctioned(self):
        diags = lint_snippet(
            '''\
            """Doc."""

            def query(env, policy):
                """Doc."""
                def attempt():
                    return env.attack([[1]])
                return call_with_retry(attempt, policy)
            ''', path=LIB_PATH)
        assert diags == []

    def test_outside_core_unrestricted(self):
        diags = lint_snippet(
            '''\
            """Doc."""

            def chaos(env):
                """Doc."""
                return env.attack([[1]])
            ''', path="src/repro/runtime/faults.py")
        assert diags == []

    def test_core_test_files_exempt(self):
        diags = lint_snippet(
            "def test_attack(env):\n    return env.attack([[1]])\n",
            path="src/repro/core/test_helpers.py")
        assert diags == []


class TestSuppression:
    def test_targeted_suppression(self):
        diags = lint_snippet(
            "t.data = arr  # graphlint: disable=REP003\n")
        assert diags == []

    def test_suppress_all_on_line(self):
        diags = lint_snippet("t.data = arr  # graphlint: disable\n")
        assert diags == []

    def test_wrong_rule_id_does_not_suppress(self):
        diags = lint_snippet(
            "t.data = arr  # graphlint: disable=REP001\n")
        assert rules_of(diags) == ["REP003"]

    def test_multiline_statement_trailing_comment(self):
        # The diagnostic anchors on the first line; the disable comment
        # sits on the closing line of the same statement.
        diags = lint_snippet(
            "t.data = (\n"
            "    arr\n"
            ")  # graphlint: disable=REP003\n")
        assert diags == []

    def test_multiline_statement_comment_on_first_line(self):
        diags = lint_snippet(
            "t.data = (  # graphlint: disable=REP003\n"
            "    arr\n"
            ")\n")
        assert diags == []

    def test_comment_inside_def_body_does_not_silence_def_diag(self):
        diags = lint_source(
            '"""Doc."""\n'
            "def f():\n"
            "    x = 1  # graphlint: disable=REP006\n"
            "    return x\n", LIB_PATH)
        assert rules_of(diags) == ["REP006"]


class TestCLI:
    def test_seeded_violation_exits_nonzero_with_location(self, tmp_path,
                                                          capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(4)\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:2:5: REP001" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text('"""Doc."""\nimport numpy as np\n'
                        "rng = np.random.default_rng(0)\n")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().err

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        diags, checked = lint_paths([str(tmp_path)])
        assert checked == 1
        assert rules_of(diags) == ["REP000"]

    def test_missing_path_is_an_error_not_a_vacuous_pass(self, tmp_path,
                                                         capsys):
        missing = tmp_path / "nope"
        assert main([str(missing)]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_rules_listing(self, capsys):
        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out

    def test_json_format_with_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(4)\n")
        assert main(["--format=json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert payload["statistics"]["REP001"] == 1
        (diag,) = [d for d in payload["diagnostics"]
                   if d["rule"] == "REP001"]
        assert diag["path"] == str(bad)
        assert diag["line"] == 2

    def test_json_format_clean_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text('"""Doc."""\n')
        assert main(["--format=json", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []
        assert all(count == 0
                   for count in payload["statistics"].values())

    def test_statistics_lists_every_rule(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(4)\n")
        assert main(["--statistics", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP001  1" in out
        for rule in RULES:
            assert rule.id in out


def test_repo_is_lint_clean():
    """The tentpole acceptance gate: the whole repo passes graphlint.

    This also subsumes the old runtime docstring walker
    (``tests/test_docstrings.py``) via REP006.
    """
    targets = [str(REPO_ROOT / part) for part in ("src", "tests",
                                                  "benchmarks")]
    diagnostics, checked = lint_paths(targets)
    assert checked > 100
    assert diagnostics == [], "\n".join(d.format() for d in diagnostics)


def test_repo_has_no_analyzer_suppressions():
    """No disable comment for graphlint, effectcheck or faultcheck.

    Reads real comment tokens, so the suppression examples that tests
    and docstrings hold in strings do not count.
    """
    pattern = re.compile(r"(graphlint|effectcheck|faultcheck):\s*disable")
    found = []
    for part in ("src", "tests", "benchmarks"):
        for path in sorted((REPO_ROOT / part).rglob("*.py")):
            with tokenize.open(path) as source:
                for token in tokenize.generate_tokens(source.readline):
                    if (token.type == tokenize.COMMENT
                            and pattern.search(token.string)):
                        found.append(f"{path}:{token.start[0]}")
    assert found == []
