import csv
import io
import json
import signal
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from oracles import basis_element, csv_writer_text, table_json_dict, table_with

from weingarten import cli, exactmat, orthogonal, verify, young
from weingarten.coeffring import TAU, parse, render
from weingarten.groupalg import AlgebraElement
from weingarten.orthogonal import weingarten_orthogonal
from weingarten.symcore import Permutation, cross_type_matrix
from weingarten.unitary import weingarten_unitary


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_orthogonal_n2_symbolic_json(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--group", "orthogonal", "--n", "2", "--tau", "symbolic",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "orthogonal"
    assert payload["weingarten"][0][1] == "(-1)/(t^3 + t^2 - 2*t)"
    assert payload["gram"][0][0] == "t^2"
    assert payload["excluded"] == []


def test_wgfn_trivial(capsys):
    code, out, _ = run_cli(
        capsys, "wgfn", "--group", "unitary", "--cycle-type", "[1]", "--tau", "5"
    )
    assert code == 0
    assert out.strip() == "1/5"


def test_wgfn_symbolic(capsys):
    code, out, _ = run_cli(
        capsys, "wgfn", "--group", "unitary", "--cycle-type", "[2]", "--tau", "symbolic"
    )
    assert code == 0
    assert out.strip() == "(-1)/(t^3 - t)"


def test_wgfn_symbolic_at_n6_prints_the_running_sum(capsys):
    from math import factorial

    from oracles import running_sum_spectral_sum
    from weingarten.symcore import Partition, hook_dimension
    from weingarten.young import character

    mu = Partition((3, 2, 1))
    expected = running_sum_spectral_sum(
        6, TAU, 1, lambda lam: Fraction(hook_dimension(lam) * character(lam, mu), factorial(6))
    )
    code, out, _ = run_cli(capsys, "wgfn", "--group", "unitary", "--cycle-type", "[3,2,1]")
    assert code == 0
    assert out == render(expected) + "\n"


def _build(kind, group, n, tau):
    if kind == "gram":
        return exactmat.weingarten_table(group, n, tau)
    return (weingarten_unitary if group == "unitary" else weingarten_orthogonal)(n, tau)


STREAM_CASES = [("unitary", n, tau) for n in range(1, 6) for tau in ("symbolic", "7", "1")] + [
    ("orthogonal", n, tau) for n in range(1, 5) for tau in ("symbolic", "7", "1")
]


@pytest.mark.parametrize("group, n, tau", STREAM_CASES, ids=lambda x: str(x))
def test_streamed_output_equals_the_whole_string_oracles(capsys, group, n, tau):
    # every entry rendered on its own, then json.dumps or a csv.writer at once
    table = _build("table", group, n, cli._parse_tau(tau))
    argv = ["table", "--group", group, "--n", str(n), "--tau", tau]
    assert run_cli(capsys, *argv) == (0, json.dumps(table_json_dict(table)) + "\n", "")
    assert run_cli(capsys, *argv, "--format", "csv") == (0, csv_writer_text(table), "")


@pytest.mark.parametrize("argv", [
    ("table", "--group", "unitary", "--n", "1", "--tau", "symbolic"),
    ("table", "--group", "unitary", "--n", "3", "--tau", "symbolic"),
    ("table", "--group", "orthogonal", "--n", "3", "--tau", "2/3"),
    ("table", "--group", "orthogonal", "--n", "2", "--tau", "1"),
    ("gram", "--group", "orthogonal", "--n", "1", "--tau", "symbolic"),
    ("gram", "--group", "unitary", "--n", "3", "--tau", "-4"),
    ("gram", "--group", "orthogonal", "--n", "4", "--tau", "symbolic"),
], ids=" ".join)
def test_csv_and_json_per_type_match_the_oracles_entry_by_entry(capsys, argv):
    table = _build(argv[0], argv[2], int(argv[4]), cli._parse_tau(argv[6]))
    assert run_cli(capsys, *argv, "--format", "csv") == (0, csv_writer_text(table), "")
    assert run_cli(capsys, *argv) == (0, json.dumps(table_json_dict(table)) + "\n", "")


def test_csv_and_json_encode_same_matrix(capsys):
    code, json_out, _ = run_cli(
        capsys, "table", "--group", "unitary", "--n", "3", "--tau", "symbolic",
        "--format", "json",
    )
    assert code == 0
    code, csv_out, _ = run_cli(
        capsys, "table", "--group", "unitary", "--n", "3", "--tau", "symbolic",
        "--format", "csv",
    )
    assert code == 0
    payload = json.loads(json_out)
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0][1:] == payload["basis"]
    for row, json_row in zip(rows[1:], payload["weingarten"]):
        assert [parse(x) for x in row[1:]] == [parse(x) for x in json_row]


def test_gram_csv(capsys):
    code, out, _ = run_cli(
        capsys, "gram", "--group", "orthogonal", "--n", "2", "--tau", "3",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][1:] == ["(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"]
    assert rows[1][1:] == ["9", "3", "3"]


def test_identical_invocations_byte_identical(capsys):
    argv = ["table", "--group", "orthogonal", "--n", "2", "--tau", "5/2"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run_cli(
        capsys, "table", "--group", "unitary", "--n", "2", "--tau", "7",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["n"] == 2


def test_characters_writes_cache(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "chars"
    monkeypatch.setenv("WG_CACHE_DIR", str(cache))
    code, out, _ = run_cli(capsys, "characters", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"].startswith("weingarten/character-table/")
    # the written file is exactly what was printed
    assert (cache / "characters-n4.json").read_bytes() == out.encode()


@pytest.mark.parametrize("target", ["missing/table.json", "."])
def test_unwritable_out_is_exit_2(tmp_path, capsys, target):
    # a missing directory, or a path that names a directory
    path = tmp_path / target
    code, out, err = run_cli(
        capsys, "table", "--group", "unitary", "--n", "2", "--tau", "7", "--out", str(path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cache_dir_naming_a_file_is_exit_2(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("WG_CACHE_DIR", str(blocker))
    code, out, err = run_cli(capsys, "characters", "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {blocker / 'characters-n2.json'}: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == ""


def test_verify_all_n2_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--n", "2")
    assert code == 0
    assert "FAIL" not in out
    assert "jucys identity n=2" in out


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "keyid", "--n", "3")
    assert code == 0
    assert out.count("ok  ") == 3


def test_verify_all_n3_passes(capsys):
    # the full desk-scale suite; slowest CLI test (dominated by 2n=6 doubling)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--n", "3")
    assert code == 0
    assert "FAIL" not in out


def test_verify_exit_code_reflects_injected_failure(capsys, monkeypatch):
    def corrupted(n, tau):
        table = weingarten_unitary(n, tau)
        bad = list(table.weingarten_by_type)
        bad[0] = bad[0] + 1  # the identity type's value: no longer a pseudo-inverse
        return table_with(table, weingarten_by_type=bad)

    monkeypatch.setattr(verify, "weingarten_unitary", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--suite", "pseudoinverse", "--n", "1")
    assert code == 1
    assert "FAIL" in out


def _pseudoinverse_lines(max_n, label_of):
    return [f"ok   pseudo-inverse {group} n={n} ({label_of(n)})"
            for group in ("unitary", "orthogonal") for n in range(1, max_n + 1)]


def test_verify_pseudoinverse_proves_both_groups_symbolically_by_default(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "pseudoinverse", "--n", "5")
    assert code == 0
    assert out.splitlines() == _pseudoinverse_lines(5, lambda n: "symbolic")


def test_verify_pseudoinverse_checks_excluded_shapes_at_an_explicit_tau(capsys):
    # at tau = 2 both groups exclude the shapes with three or more rows at
    # n = 4, so the check there is the pseudo-inverse prescription, not W G = 1
    for build in (weingarten_unitary, weingarten_orthogonal):
        assert [tuple(p) for p in build(4, Fraction(2)).excluded] == [(2, 1, 1), (1, 1, 1, 1)]
    code, out, _ = run_cli(capsys, "verify", "--suite", "pseudoinverse", "--n", "4", "--tau", "2")
    assert code == 0
    assert out.splitlines() == _pseudoinverse_lines(4, lambda n: "tau=2" if n >= 4 else "symbolic")


@pytest.mark.parametrize("tau", [Fraction(5, 2), Fraction(0)], ids=str)
@pytest.mark.parametrize("suite", ["oid", "stability", "pseudoinverse"])
def test_an_explicit_tau_replaces_the_symbolic_proof_from_n_4_on(suite, tau):
    # at tau = 0 the identities still hold, if with many coefficients zero
    default = list(verify.run(suite, 4))
    assert all(ok and label.endswith("(symbolic)") for label, ok in default)
    explicit = list(verify.run(suite, 4, tau))
    assert all(ok for _, ok in explicit)
    assert [label.replace(f"(tau={tau})", "(symbolic)") for label, _ in explicit] == [
        label for label, _ in default
    ]
    assert [label.endswith(f"(tau={tau})") for label, _ in explicit] == [
        " n=4 " in label for label, _ in explicit
    ]


def _plus_transposition(product, i=1, j=2):
    """The product with one more term, 1 * (i j), wherever S_m has (i j)."""
    def corrupted(n, tau):
        out = product(n, tau)
        if out.n < max(i, j):
            return out
        return out + basis_element(Permutation.transposition(i, j, out.n))
    return corrupted


def _identity_coefficient_shifted(make):
    """Every element made by `make`, with its identity coefficient raised by 1/7."""
    def corrupted(*args, **kwargs):
        e = make(*args, **kwargs)
        return e + AlgebraElement.unit(e.n, Fraction(1, 7))
    return corrupted


def _character_plus_one(character):
    """Characters each one more than the true value."""
    return lambda lam, mu: character(lam, mu) + 1


def _size4_coefficient_shifted(extend):
    """Size-4 idempotents with the coefficient of (2 3), which lies outside H_2, raised by 1.

    The trace criterion reads only coefficients on H_2, so the survivors stay
    the same while P * e(T) no longer vanishes for the non-doubled tableaux.
    """
    def corrupted(t):
        e = extend(t)
        if e.n != 4:
            return e
        return e + basis_element(Permutation.transposition(2, 3, 4))
    return corrupted


def _jm_doubled(jm):
    return lambda k, n: jm(k, n).scale(Fraction(2))


def _table_gram_value_raised(make):
    """Tables whose Gram value on the type numbered 1, not the identity type, is raised by 1."""
    def corrupted(n, tau):
        table = make(n, tau)
        gram = list(table.gram_by_type)
        if len(gram) > 1:
            gram[1] = gram[1] + 1
        return table_with(table, gram_by_type=gram)
    return corrupted


def _type_numbering_reversed(table):
    """Tables that number the types in reverse, values and all.

    The Gram matrix is the same, but not numbered as the type algebra's row 0,
    so no product of it is proved.  A changed value could not fail the check:
    the type algebra of the pairings is commutative.
    """
    def corrupted(group, n, tau):
        t = table(group, n, tau)
        return table_with(t, types=t.types[::-1], gram_by_type=t.gram_by_type[::-1])
    return corrupted


def _non_base_type_as_base(type_row):
    """Type rows in which element 1, not the base, has the base's type: one loop too many."""
    def corrupted(group, n):
        basis, types = type_row(group, n)
        return basis, [types[0], types[0], *types[2:]] if len(types) > 1 else types
    return corrupted


INJECTED = {
    "jucys": (2, "jm_product_unitary", _plus_transposition),
    "oid": (1, "jm_product_orthogonal", _plus_transposition),
    "idempotents": (1, "young_idempotent", _identity_coefficient_shifted),
    "central": (1, "character", _character_plus_one),
    "doubling": (2, "_extend_idempotent", _size4_coefficient_shifted),
    "keyid": (1, "jm_element", _jm_doubled),
    "stability": (2, "_type_row", _non_base_type_as_base),
    "pseudoinverse": (2, "weingarten_orthogonal", _table_gram_value_raised),
    "commute": (2, "weingarten_table", _type_numbering_reversed),
}


@pytest.mark.parametrize("suite", sorted(INJECTED))
def test_verify_suite_fails_on_injected_fault(capsys, monkeypatch, suite):
    # one corrupted input, read by the suite through weingarten.verify, must
    # turn a line into FAIL and the exit code into 1
    n, name, corrupt = INJECTED[suite]
    monkeypatch.setattr(verify, name, corrupt(getattr(verify, name)))
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n", str(n))
    assert code == 1
    assert "FAIL" in out


def test_oid_fails_on_an_injected_fault_at_tau_0(capsys, monkeypatch):
    # tau = 0 makes the product zero, but not a vacuous pass: the extra
    # transposition survives it
    n, name, corrupt = INJECTED["oid"]
    monkeypatch.setattr(verify, name, corrupt(getattr(verify, name)))
    code, out, err = run_cli(capsys, "verify", "--suite", "oid", "--n", "4", "--tau", "0")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL odd JM expansion n=4 (tau=0)"
    assert "Traceback" not in err


def _two_types_swapped(type_row):
    """Type rows with the types of elements 0 and 1 swapped."""
    def corrupted(group, n):
        basis, types = type_row(group, n)
        return basis, [types[1], types[0], *types[2:]] if len(types) > 1 else types
    return corrupted


def _typed_against_basis_1(type_row):
    """Type rows walked against basis[1], not the base basis[0]."""
    def corrupted(group, n):
        basis, types = type_row(group, n)
        if len(basis) < 2:
            return basis, types
        walked, (row,) = cross_type_matrix(basis[1:2], basis)
        return basis, [walked[k] for k in row]
    return corrupted


def _row_entries_swapped(type_algebra):
    """Type algebras whose row 0 has the types of elements 0 and 1 swapped."""
    def corrupted(group, n):
        algebra = type_algebra(group, n)
        row = algebra.row
        return algebra._replace(row=[row[1], row[0], *row[2:]]) if len(row) > 1 else algebra
    return corrupted


def _last_element_missing(elements):
    """H_n lists without their last element."""
    return lambda n: elements(n)[:-1]


# faults in the paths that types and P_H take: the type row or the type
# algebra's row 0, and H_n
SHARED_PATH_FAULTS = {
    "doubling": (2, "hyperoctahedral_elements", _last_element_missing),
    "jucys": (3, "_type_row", _two_types_swapped),
    "central": (3, "_type_algebra", _row_entries_swapped),
    "oid": (2, "_type_row", _typed_against_basis_1),
    "stability": (2, "_type_row", _typed_against_basis_1),
}


@pytest.mark.parametrize("suite", sorted(SHARED_PATH_FAULTS))
def test_verify_suite_fails_on_a_fault_in_its_type_row_or_h_n(capsys, monkeypatch, suite):
    n, name, corrupt = SHARED_PATH_FAULTS[suite]
    monkeypatch.setattr(verify, name, corrupt(getattr(verify, name)))
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n", str(n))
    assert code == 1
    assert "FAIL" in out


def _constant_raised_at_3(type_algebra):
    """The class algebra of S_3 with one structure constant raised by 1."""
    def corrupted(group, n):
        algebra = type_algebra(group, n)
        if n != 3:
            return algebra
        constants = [Counter(c) for c in algebra.constants]
        constants[1][next(iter(constants[1]))] += 1
        return algebra._replace(constants=constants)
    return corrupted


def _unproven_at_3(type_algebra):
    """No type algebra at n = 3, as when its structure proof fails."""
    return lambda group, n: None if n == 3 else type_algebra(group, n)


@pytest.mark.parametrize("corrupt", [_constant_raised_at_3, _unproven_at_3],
                         ids=["constant raised", "no algebra"])
def test_central_fails_on_a_fault_in_its_class_algebra(capsys, monkeypatch, corrupt):
    monkeypatch.setattr(verify, "_type_algebra", corrupt(verify._type_algebra))
    code, out, err = run_cli(capsys, "verify", "--suite", "central", "--n", "3")
    assert code == 1
    assert out.splitlines() == ["ok   central idempotents, both routes n=1",
                                "ok   central idempotents, both routes n=2",
                                "FAIL central idempotents, both routes n=3"]
    assert "Traceback" not in err


def _plus_coset_difference(product):
    """The product plus (2 3) - (1 2)(2 3), wherever S_m has (2 3).

    Both terms lie in the right coset H (2 3), so every right-coset sum, and
    with them P_H G and its matrix, stay the same, while G P_H changes.
    """
    def corrupted(n, tau):
        out = product(n, tau)
        if out.n < 3:
            return out
        swap = Permutation.transposition(2, 3, out.n)
        flip = Permutation.transposition(1, 2, out.n)
        return out + basis_element(swap) - basis_element(flip * swap)
    return corrupted


STABILITY_FAULTS = {
    "plus (1 2)": lambda product: _plus_transposition(product, 1, 2),
    "plus (2 3)": lambda product: _plus_transposition(product, 2, 3),
    "plus (1 3)": lambda product: _plus_transposition(product, 1, 3),
    "plus (2 3) - (1 2)(2 3)": _plus_coset_difference,
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fault", sorted(STABILITY_FAULTS))
def test_stability_fails_on_a_corrupted_g(capsys, monkeypatch, fault, n):
    # (1 2) lies in H and moves one coset sum; the others break invariance
    corrupt = STABILITY_FAULTS[fault]
    monkeypatch.setattr(verify, "jm_product_orthogonal", corrupt(verify.jm_product_orthogonal))
    code, out, err = run_cli(capsys, "verify", "--suite", "stability", "--n", str(n))
    assert code == 1
    assert out.splitlines()[-1] == f"FAIL stability lemma n={n} (symbolic)"
    assert "Traceback" not in err


def test_stability_fails_on_a_coset_label_with_two_points_swapped(capsys, monkeypatch):
    # 2 and 3 lie in different pairs of the adjacent pairing
    label = orthogonal.coset_label

    def swapped(sigma):
        out = label(sigma)
        return out if len(out) < 4 else out.conjugate_by(Permutation.transposition(2, 3, len(out)))

    for module in (orthogonal, verify):
        monkeypatch.setattr(module, "coset_label", swapped)
    code, out, err = run_cli(capsys, "verify", "--suite", "stability", "--n", "2")
    assert code == 1
    assert out.splitlines() == ["ok   stability lemma n=1 (symbolic)",
                                "FAIL stability lemma n=2 (symbolic)"]
    assert "Traceback" not in err


def test_stability_fails_on_a_representative_outside_its_coset(capsys, monkeypatch):
    # the representative of the last pairing times (2 3), which lies outside H,
    # no longer conjugates the adjacent pairing to that pairing
    representative = verify.coset_representative
    last = exactmat.BASES["orthogonal"](2)[-1]

    def moved(pi):
        r = representative(pi)
        return r * Permutation.transposition(2, 3, len(pi)) if pi == last else r

    monkeypatch.setattr(verify, "coset_representative", moved)
    code, out, err = run_cli(capsys, "verify", "--suite", "stability", "--n", "2")
    assert code == 1
    assert out.splitlines() == ["ok   stability lemma n=1 (symbolic)",
                                "FAIL stability lemma n=2 (symbolic)"]
    assert "Traceback" not in err


@pytest.mark.parametrize("fault", ["plus (2 3)", "plus (2 3) - (1 2)(2 3)"])
def test_stability_catches_what_a_dropped_generator_misses(capsys, monkeypatch, fault):
    # without (1 2), both faults pass the invariance check at n = 2: G + (2 3)
    # still fails the matrix, G + (2 3) - (1 2)(2 3) the comparison of P_H G
    # with G P_H at the coset representatives
    generators = verify.hyperoctahedral_generators
    monkeypatch.setattr(verify, "hyperoctahedral_generators", lambda n: generators(n)[1:])
    corrupted = STABILITY_FAULTS[fault](verify.jm_product_orthogonal)
    monkeypatch.setattr(verify, "jm_product_orthogonal", corrupted)
    g = corrupted(2, Fraction(2))
    sums = [orthogonal.coset_sums(2, g), orthogonal.coset_sums(2, g.antipode())]

    def invariant(h):
        return all({pi.conjugate_by(h): c for pi, c in f.items()} == f for f in sums)

    assert all(invariant(h) for h in generators(2)[1:]) and not invariant(generators(2)[0])
    code, out, err = run_cli(capsys, "verify", "--suite", "stability", "--n", "2")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL stability lemma n=2 (symbolic)"
    assert "Traceback" not in err


_ORTHOGONAL_N3 = ["--group", "orthogonal", "--n", "3"]


@pytest.mark.parametrize("argv, to_file", [
    (["table", *_ORTHOGONAL_N3, "--tau", "7"], False),
    (["table", *_ORTHOGONAL_N3, "--tau", "7"], True),
    (["table", *_ORTHOGONAL_N3, "--format", "csv"], False),
    (["table", *_ORTHOGONAL_N3, "--format", "csv"], True),
    (["mc", *_ORTHOGONAL_N3, "--tau", "2", "--indices", "1,1,2,2,1,1;1,2,1,2,1,1"], False),
], ids=lambda x: " ".join(x) if isinstance(x, list) else ("out" if x else "stdout"))
def test_an_unproven_orthogonal_value_is_exit_3(capsys, monkeypatch, tmp_path, argv, to_file):
    # one structure constant off by one: the idempotents fail their proof,
    # and no table or prediction is printed, nor any --out file made
    real = exactmat._type_algebra

    def bumped(*args):
        algebra = real(*args)
        constants = [Counter(c) for c in algebra.constants]
        constants[1][next(iter(constants[1]))] += 1
        return algebra._replace(constants=constants)

    monkeypatch.setattr(exactmat, "_type_algebra", bumped)
    target = tmp_path / "table.out"
    code, out, err = run_cli(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert code == 3 and out == "" and not target.exists()
    assert err.startswith("domain error: type idempotents") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_an_unproven_type_index_writes_nothing(capsys, monkeypatch, tmp_path, fmt, to_file):
    # two entries swapped in the map of (1 2 3 4) that the type algebra keeps
    # for rendering: the index fails its invariance proof before the first
    # byte is written
    maps_of = exactmat.generator_index_maps

    def swapped(basis):
        maps = maps_of(basis)
        maps[0][2], maps[0][7] = maps[0][7], maps[0][2]
        return maps

    monkeypatch.setattr(exactmat, "generator_index_maps", swapped)
    exactmat._type_algebra.cache_clear()
    target = tmp_path / "table.out"
    argv = ["table", "--group", "unitary", "--n", "4", "--format", fmt]
    code, out, err = run_cli(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert (code, out) == (3, "") and not target.exists()
    assert err.startswith("domain error: type matrix: ") and err.count("\n") == 1


def test_verify_doubling_disagreement_is_a_fail_not_a_traceback(capsys, monkeypatch):
    # over H_1 without its identity, e([[1], [2]]) = (1 - (1 2))/2 sums to
    # -1/2, so the criterion keeps it, while its direct product vanishes
    elements = verify.hyperoctahedral_elements

    def without_identity(n):
        return elements(n)[1:] if n == 1 else elements(n)

    monkeypatch.setattr(verify, "hyperoctahedral_elements", without_identity)
    code, out, err = run_cli(capsys, "verify", "--suite", "doubling", "--n", "2")
    assert code == 1
    assert out.splitlines() == ["FAIL doubling survivors 2n=2", "ok   doubling survivors 2n=4"]
    assert "Traceback" not in err


def test_verify_notes_the_skipped_doubling_sizes(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "doubling", "--n", "4")
    assert code == 0
    assert out == "".join(f"ok   doubling survivors 2n={2 * n}\n" for n in (1, 2, 3))
    assert err == "note: 'doubling' stops at 2n=6; pass --deep for 2n up to 8\n"


def test_verify_all_notes_each_lowered_cap(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n", "5")
    assert code == 0
    assert err.splitlines() == [
        "note: --n 5 lowered to the 'doubling' suite cap 4",
        "note: 'doubling' stops at 2n=6; pass --deep for 2n up to 8",
        "note: --n 5 lowered to the 'keyid' suite cap 4",
        "note: --n 5 lowered to the 'stability' suite cap 4",
        "note: --n 5 lowered to the 'commute' suite cap 4",
    ]
    # stdout is exactly each suite's own output at the lowered size
    expected = ""
    for suite, (cap, _) in verify.SUITES.items():
        expected += run_cli(capsys, "verify", "--suite", suite, "--n", str(min(5, cap)))[1]
    assert out == expected


def test_usage_errors_exit_2(capsys):
    # out-of-cap without --force, message names the flag
    code, _, err = run_cli(capsys, "table", "--group", "orthogonal", "--n", "9",
                           "--tau", "symbolic")
    assert code == 2
    assert "--force" in err and "--n" in err or "cap" in err
    # malformed rational
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "table", "--group", "unitary", "--n", "2", "--tau", "x/y")
    assert exc.value.code == 2
    # unknown flag
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "table", "--group", "unitary", "--n", "2", "--frobnicate")
    assert exc.value.code == 2


def test_domain_error_exits_3(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "commute", "--n", "2",
                           "--tau", "3", "--tau2", "3")
    assert code == 3
    assert "domain error" in err


@pytest.mark.parametrize("argv", [
    ["--tau", "3", "--tau2", "3"],
    ["--tau", "7"],  # collides with the default --tau2
])
def test_equal_commute_parameters_stop_before_any_suite(capsys, argv):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n", "2", *argv)
    assert code == 3
    assert out == ""
    assert err == "domain error: parameters must be distinct for a meaningful check\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_is_not_a_failed_check(python_env):
    # about 217 KB of JSON overfills the pipe, so a write always follows the close
    argv = ["table", "--group", "orthogonal", "--n", "4", "--tau", "7"]
    with subprocess.Popen([sys.executable, "-m", "weingarten", *argv], env=python_env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert head == b'{"group": '
    assert proc.returncode not in (0, 1)
    assert "Traceback" not in err


# A child's ru_maxrss counts the memory of the process it was forked from, up
# to its exec, so the table runs under a small helper that reads its own
# child's peak with os.wait4, not under this test process.
_PEAK_RSS_HELPER = """
import os, subprocess, sys
with open(os.devnull, "wb") as sink:
    proc = subprocess.Popen([sys.executable, "-m", "weingarten", *sys.argv[1:]], stdout=sink)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


@pytest.mark.parametrize("argv, limit_mb", [
    (["table", "--group", "unitary", "--n", "6", "--force"], 40),
    (["table", "--group", "orthogonal", "--n", "5", "--force"], 45),
], ids=lambda x: " ".join(x) if isinstance(x, list) else f"{x}MB")
def test_peak_memory_does_not_grow_with_the_output(python_env, argv, limit_mb):
    # 46 MB and 104 MB of JSON, streamed one row at a time
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_HELPER, *argv], env=python_env,
                          capture_output=True, text=True, timeout=120)
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert peak_kb / 1024 < limit_mb


@pytest.mark.parametrize("text", ["garbage", "[0]", "[1,2]", "[2,x]", "[]"])
def test_bad_cycle_type_is_a_usage_error(capsys, text):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "wgfn", "--group", "unitary", "--cycle-type", text, "--tau", "5")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--cycle-type" in err and "domain error" not in err


@pytest.mark.parametrize("tau", ["0", "-3", "x"])
@pytest.mark.parametrize("indices", [[], ["--indices", "1;1;1;1"]])
def test_mc_nonpositive_tau_is_a_usage_error(capsys, tau, indices):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "mc", "--group", "unitary", "--n", "1", "--tau", tau,
                "--samples", "1000", "--seed", "1", *indices)
    assert exc.value.code == 2
    assert "--tau" in capsys.readouterr().err


def test_mc_single_moment(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--group", "orthogonal", "--n", "1", "--tau", "4",
        "--samples", "5000", "--seed", "2", "--indices", "1,1;1,1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == "1/4"
    assert abs(payload["z"]) <= 4


def test_mc_unitary_indices(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--group", "unitary", "--n", "1", "--tau", "3",
        "--samples", "5000", "--seed", "2", "--indices", "1;1;1;1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == "1/3"


def test_mc_grid_small(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--group", "unitary", "--n", "1", "--tau", "2",
        "--samples", "20000", "--seed", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["moments"] == 16
    assert payload["failures"] == []


def test_mc_grid_cap(capsys):
    code, _, err = run_cli(
        capsys, "mc", "--group", "unitary", "--n", "3", "--tau", "2",
        "--samples", "1000", "--seed", "1",
    )
    assert code == 2
    assert "--force" in err


def test_mc_grid_moment_cap(capsys):
    def grid(tau, *extra):
        return run_cli(capsys, "mc", "--group", "orthogonal", "--n", "2", "--tau", tau,
                       "--samples", "100", "--seed", "1", *extra)

    # O n=2 tau=6 has 6^8 = 1 679 616 moments, past the cap 5^8
    code, out, err = grid("6")
    assert code == 2
    assert out == ""
    assert "1679616 moments" in err and "cap 390625" in err and "--force" in err
    code, out, _ = grid("6", "--force")
    assert code in (0, 1)
    assert json.loads(out)["moments"] == 6**8
    # exactly at the cap runs without --force
    code, out, _ = grid("5")
    assert code in (0, 1)
    assert json.loads(out)["moments"] == 5**8


def test_mc_indices_degree_cap(capsys):
    # a balanced unitary moment of degree 6 expands over S_6, past the cap 5
    six = ",".join(["1"] * 6)
    indices = ";".join([six] * 4)
    code, out, err = run_cli(
        capsys, "mc", "--group", "unitary", "--n", "1", "--tau", "2",
        "--samples", "100", "--seed", "1", "--indices", indices,
    )
    assert code == 2
    assert out == ""
    assert "degree 6" in err and "--force" in err
    code, out, _ = run_cli(
        capsys, "mc", "--group", "unitary", "--n", "1", "--tau", "2",
        "--samples", "100", "--seed", "1", "--indices", indices, "--force",
    )
    assert code in (0, 1)
    assert json.loads(out)["exact"] == "1/7"
    # twelve orthogonal factors expand over the pairings of 12 points
    twelve = ",".join(["1"] * 12)
    code, _, err = run_cli(
        capsys, "mc", "--group", "orthogonal", "--n", "1", "--tau", "2",
        "--samples", "100", "--seed", "1", "--indices", f"{twelve};{twelve}",
    )
    assert code == 2
    assert "degree 6" in err


def test_mc_bad_indices(capsys):
    code, _, err = run_cli(
        capsys, "mc", "--group", "orthogonal", "--n", "1", "--tau", "4",
        "--samples", "1000", "--seed", "1", "--indices", "1,1",
    )
    assert code == 3
    assert "semicolon" in err


@pytest.mark.parametrize("indices", ["x;1", "1,,2;1,1"])
def test_mc_unparsable_indices_are_a_usage_error(capsys, indices):
    # text that does not parse is a usage error; a wrong list count or an
    # index outside 1..tau parses, and stays a domain error (above)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "mc", "--group", "orthogonal", "--n", "1", "--tau", "4",
                "--samples", "1000", "--seed", "1", "--indices", indices)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--indices" in err and "Traceback" not in err


@pytest.mark.parametrize("samples", ["1", "0", "-5"])
@pytest.mark.parametrize("indices", [[], ["--indices", "1;1;1;1"]])
def test_mc_too_few_samples_is_a_usage_error(capsys, samples, indices):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "mc", "--group", "unitary", "--n", "1", "--tau", "2",
                "--samples", samples, "--seed", "1", *indices)
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_mc_negative_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "mc", "--group", "unitary", "--n", "1", "--tau", "2",
                "--samples", "1000", "--seed", "-1")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["table", "--group", "unitary", "--n", "0"],
    ["gram", "--group", "orthogonal", "--n", "0"],
    ["mc", "--group", "unitary", "--n", "0", "--tau", "2", "--samples", "1000"],
    ["table", "--group", "orthogonal", "--n", "-2", "--tau", "3"],
])
def test_nonpositive_n_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


def _edit_two_integers(text: str) -> str:
    data = json.loads(text)
    data["values"][0][0] += 1
    data["values"][0][1] += 1
    return json.dumps(data)


def _swap_conjugate_rows(text: str) -> str:
    data = json.loads(text)
    if data["n"] == 6:
        a, b = data["partitions"].index("[4,2]"), data["partitions"].index("[2,2,1,1]")
    else:
        a, b = data["partitions"].index("[3,1]"), data["partitions"].index("[2,1,1]")
    data["values"][a], data["values"][b] = data["values"][b], data["values"][a]
    return json.dumps(data)


POISONS = {
    "two edited integers": _edit_two_integers,
    "truncated": lambda text: text[: len(text) // 2],
    "swapped conjugate rows": _swap_conjugate_rows,
    "not JSON": lambda text: "three\n",
}
# W[0][0] of O n=2 at tau=5 sums characters of S_4, of O n=3 at tau=7 of S_6
ORTHOGONAL_TABLES = {
    4: (["table", "--group", "orthogonal", "--n", "2", "--tau", "5"], "3/70"),
    6: (["table", "--group", "orthogonal", "--n", "3", "--tau", "7"], "34/10395"),
}


@pytest.mark.parametrize("poison", sorted(POISONS))
def test_no_character_file_reaches_table(tmp_path, monkeypatch, capsys, poison):
    # characters come from the in-process memo alone: a poisoned file under
    # WG_CACHE_DIR changes no output, raises no warning and is never rewritten
    poisoned = tmp_path / "poisoned"
    monkeypatch.setenv("WG_CACHE_DIR", str(poisoned))
    for k in ORTHOGONAL_TABLES:
        assert run_cli(capsys, "characters", "--n", str(k))[0] == 0
        path = poisoned / f"characters-n{k}.json"
        path.write_text(POISONS[poison](path.read_text()))
    files = {path: path.read_bytes() for path in poisoned.iterdir()}
    young._CHAR_MEMO.clear()
    outputs = {}
    for k, (argv, w00) in ORTHOGONAL_TABLES.items():
        code, outputs[k], err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(outputs[k])["weingarten"][0][0] == w00
    assert {path: path.read_bytes() for path in poisoned.iterdir()} == files

    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setenv("WG_CACHE_DIR", str(empty))
    for k, (argv, _) in ORTHOGONAL_TABLES.items():
        assert run_cli(capsys, *argv) == (0, outputs[k], "")
    assert list(empty.iterdir()) == []
