import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from constella import cli, fixtures
from constella.cli import main
from constella.functor import build_C
from constella.groups import cyclic_group
from constella.io import parse_structure, serialize_structure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture_path(fixture_dir, name):
    return str(fixture_dir / f"{name}.sgpd")


def test_verify_valid_fixture(capsys, fixture_dir):
    code, out, _ = run(capsys, "verify", fixture_path(fixture_dir, "ex6_6"))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_verify_invalid_structure(capsys, tmp_path):
    bad = tmp_path / "bad.sgpd"
    bad.write_text("kind semigroupoid\nelements a b\nplus a b\nplus b b\n"
                   "comp a b a\ncomp b a b\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False and doc["violations"]


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.sgpd"
    bad.write_text("kind semigroupoid\nelements a\nplus a a\norder a a\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2 and "order" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "verify", "no/such/file.sgpd")
    assert code == 2


def test_classify_golden(capsys, fixture_dir):
    code, out, _ = run(capsys, "classify", fixture_path(fixture_dir, "ex6_5"))
    assert code == 0
    doc = json.loads(out)["classification"]
    assert doc["unitary"] is True and doc["nd"] is False


def test_convert_to_constellation_matches_library(capsys, fixture_dir):
    code, out, _ = run(
        capsys, "convert", "--to", "constellation", fixture_path(fixture_dir, "ex6_3")
    )
    assert code == 0
    assert parse_structure(out) == build_C(fixtures.ex6_3())


def test_convert_back_recovers_the_file(capsys, fixture_dir, tmp_path):
    code, out, _ = run(
        capsys, "convert", "--to", "constellation", fixture_path(fixture_dir, "ex6_6")
    )
    cst = tmp_path / "ex6_6.cst"
    cst.write_text(out)
    code, out2, _ = run(capsys, "convert", "--to", "semigroupoid", str(cst))
    assert code == 0
    assert parse_structure(out2) == fixtures.ex6_6()


def test_convert_wrong_kind_exits_2(capsys, fixture_dir, tmp_path):
    cst = tmp_path / "c.cst"
    cst.write_text(serialize_structure(build_C(fixtures.ex6_3())))
    code, _, err = run(capsys, "convert", "--to", "constellation", str(cst))
    assert code == 2


def test_roundtrip_verb(capsys, fixture_dir):
    code, out, _ = run(capsys, "roundtrip", fixture_path(fixture_dir, "ex6_4"))
    assert code == 0 and json.loads(out)["valid"] is True


def test_expand_semigroupoid_verb(capsys, fixture_dir):
    code, out, _ = run(capsys, "expand", fixture_path(fixture_dir, "ex6_5"))
    assert code == 0
    expanded = parse_structure(out)
    assert len(expanded.carrier) == 3


def test_expand_iota_on_constellation(capsys, fixture_dir, tmp_path):
    _, out, _ = run(
        capsys, "convert", "--to", "constellation", fixture_path(fixture_dir, "ex6_5")
    )
    cst = tmp_path / "c.cst"
    cst.write_text(out)
    code, out, _ = run(capsys, "expand", "--iota", str(cst))
    assert code == 0
    assert "map x x_x+'x" in out
    assert "map x+ x+'x+" in out


def test_iota_flag_rejected_for_semigroupoids(capsys, fixture_dir):
    code, _, err = run(capsys, "expand", "--iota", fixture_path(fixture_dir, "ex6_5"))
    assert code == 2


def test_check_morphism_rm(capsys, fixture_dir, tmp_path):
    mor = tmp_path / "m.mor"
    mor.write_text(
        f"source {fixture_path(fixture_dir, 'singleton')}\n"
        f"target {fixture_path(fixture_dir, 'pair_split_plus')}\n"
        "map e e\n"
    )
    code, out, _ = run(capsys, "check-morphism", "--kind", "rm", str(mor))
    assert code == 0 and json.loads(out)["valid"] is True


def test_check_morphism_reports_violations(capsys, fixture_dir, tmp_path):
    mor = tmp_path / "m.mor"
    mor.write_text(
        f"source {fixture_path(fixture_dir, 'singleton')}\n"
        f"target {fixture_path(fixture_dir, 'pair_constant_plus')}\n"
        "map e e\n"
    )
    code, out, _ = run(capsys, "check-morphism", "--kind", "rm", str(mor))
    assert code == 1
    doc = json.loads(out)
    assert doc["violations"][0]["axiom"] == "rm2"


def test_check_morphism_kind_mismatch(capsys, fixture_dir, tmp_path):
    mor = tmp_path / "m.mor"
    mor.write_text(
        f"source {fixture_path(fixture_dir, 'singleton')}\n"
        f"target {fixture_path(fixture_dir, 'singleton')}\n"
        "map e e\n"
    )
    code, _, err = run(capsys, "check-morphism", "--kind", "ir", str(mor))
    assert code == 2 and "constellation" in err


# x|e has two incomparable candidates, a and b, and no maximum, so the
# pseudo-products (x|y+) y are missing where y+ = e: the file fails wo4
_BROKEN_CONSTELLATION = (
    "kind constellation\nelements a b e x\n"
    + "".join(f"plus {z} e\n" for z in "abex")
    + "comp a e a\ncomp b e b\ncomp e e e\norder a x\norder b x\n")


def test_check_morphism_on_a_constellation_that_fails_its_axioms(
        capsys, tmp_path):
    cst = tmp_path / "broken.cst"
    cst.write_text(_BROKEN_CONSTELLATION)
    code, out, err = run(capsys, "verify", str(cst))
    assert code == 1 and "wo4" in out
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the identity fails ip1 exactly where a pseudo-product is missing
    for mapping in ("abex", "xxex", "aaee"):
        mor = tmp_path / "m.mor"
        mor.write_text(f"source {cst}\ntarget {cst}\n" + "".join(
            f"map {x} {y}\n" for x, y in zip("abex", mapping)))
        for kind in ("ir", "ip"):
            proc = subprocess.run(
                [sys.executable, "-m", "constella.cli", "check-morphism",
                 "--kind", kind, str(mor)],
                capture_output=True, text=True, env=env, timeout=60)
            assert proc.stderr == "" and proc.returncode in (0, 1)
            doc = json.loads(proc.stdout)
            assert doc["valid"] is (proc.returncode == 0)


def test_extend_produces_the_anchor_projection(capsys, fixture_dir, tmp_path):
    _, out, _ = run(
        capsys, "convert", "--to", "constellation", fixture_path(fixture_dir, "ex6_5")
    )
    cst = tmp_path / "c.cst"
    cst.write_text(out)
    mor = tmp_path / "id.mor"
    mor.write_text(f"source {cst}\ntarget {cst}\nmap x x\nmap x+ x+\n")
    code, out, _ = run(capsys, "extend", "--phi", str(mor))
    assert code == 0
    assert "map x+'x+ x+" in out
    assert "map x_x+'x x" in out
    assert "map x_x+'x+ x+" in out


def test_extend_rejects_semigroupoid_morphisms(capsys, fixture_dir, tmp_path):
    mor = tmp_path / "semi.mor"
    mor.write_text(
        f"source {fixture_path(fixture_dir, 'singleton')}\n"
        f"target {fixture_path(fixture_dir, 'singleton')}\n"
        "map e e\n"
    )
    code, _, err = run(capsys, "extend", "--phi", str(mor))
    assert code == 2 and "constellation" in err


def test_extend_rejects_non_preradiants(capsys, fixture_dir, tmp_path):
    _, out, _ = run(
        capsys, "convert", "--to", "constellation", fixture_path(fixture_dir, "ex6_5")
    )
    cst = tmp_path / "c.cst"
    cst.write_text(out)
    mor = tmp_path / "bad.mor"
    mor.write_text(f"source {cst}\ntarget {cst}\nmap x x+\nmap x+ x\n")
    code, out, _ = run(capsys, "extend", "--phi", str(mor))
    assert code == 1
    assert json.loads(out)["violations"]


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "lrs", "--size", "2",
                       "--count-only")
    assert code == 0
    assert json.loads(out)["counts"]["count"] == 9


def test_enumerate_streams_records(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "lic", "--size", "1")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    assert records[0]["kind"] == "constellation"


def test_enumerate_up_to_iso(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "lrs", "--size", "2",
                       "--count-only", "--up-to-iso")
    assert code == 0
    assert json.loads(out)["counts"]["count"] == 5


def test_enumerate_respects_cap(capsys, monkeypatch):
    monkeypatch.setenv("CONSTELLA_CAP", "2")
    code, _, err = run(capsys, "enumerate", "--kind", "lrs", "--size", "3",
                       "--count-only")
    assert code == 2 and "cap" in err
    # the stream raises on its first next, before any record is written
    code, out, err = run(capsys, "enumerate", "--kind", "lrs", "--size", "3")
    assert code == 2 and "cap" in err and out == ""


def test_enumerate_count_only_streams_the_census(capsys, monkeypatch):
    # Counting holds one structure at a time, besides the rows and plus
    # maps the census shares.  The traced peak is about 1.0 MB, 1.5 MB on
    # the first call in a process; holding the 3,021 semigroupoids of size
    # 4 in a list raises each by about 0.4 MB (Python 3.11).  A peak does
    # not separate the two (a held list peaks at about 1.4 MB after a first
    # call), but what is freed between the count being written and main
    # returning does: about -1 KB for the stream, about +445 KB for a held
    # list, which lives until cmd_enumerate returns.
    traced = []
    render_report = cli.render_report

    def spy(**fields):
        traced.append(tracemalloc.get_traced_memory()[0])
        return render_report(**fields)

    monkeypatch.setattr(cli, "render_report", spy)
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "enumerate", "--kind", "lrs", "--size", "4",
                           "--count-only")
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["counts"]["count"] == 3021
    assert peak < 2.5e6, peak
    assert len(traced) == 1 and traced[0] - current < 1e5, traced[0] - current


def test_non_integer_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CONSTELLA_CAP", "abc")
    for argv in (("enumerate", "--kind", "lrs", "--size", "1"),
                 ("theorems", "--size", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: CONSTELLA_CAP must be an integer, got 'abc'"]


def test_morphism_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CONSTELLA_CAP", "9")
    code, out, err = run(capsys, "theorems", "--size", "1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "exceed cap 9" in err


def test_expand_over_the_cap_exits_2(capsys, monkeypatch, tmp_path):
    z5 = cyclic_group(5)  # |Sz| = 48
    monkeypatch.setenv("CONSTELLA_CAP", "2000")
    for name, s in (("z5.sgpd", z5), ("cz5.sgpd", build_C(z5))):
        path = tmp_path / name
        path.write_text(serialize_structure(s))
        code, out, err = run(capsys, "expand", str(path))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: an expansion of 48 elements has 48^2 table cells, "
            "which exceed cap 2000"]


def test_enumerate_size_zero_exits_2(capsys):
    code, out, err = run(capsys, "enumerate", "--kind", "lrs", "--size", "0")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: --size must be at least 1"]


def test_theorems_size_below_one_exits_2(capsys):
    for size in ("0", "-1"):
        code, out, err = run(capsys, "theorems", "--size", size)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: --size must be at least 1"]


def test_theorems_small(capsys):
    code, out, _ = run(capsys, "theorems", "--size", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)


# The eight lines of `constella theorems --size 3`, byte for byte (sha256
# f36264ef...0d70, the digest perfbench's battery workload checks).
THEOREMS_SIZE_3 = """\
PASS fixture-validation  (all structures valid)
PASS classification-golden  (verdicts match)
PASS roundtrip  (300 round trips)
PASS morphism-bijection  (149 pairs)
PASS szendrei-coherence  (all fixtures)
PASS universal-property  (172 preradiants extended, 172 radiants restricted)
PASS section7-equivalences  (150 structures)
PASS census-bijectivity  (1:1 2:9 3:130)
"""


def test_theorems_size_3_output_is_pinned(capsys):
    code, out, err = run(capsys, "theorems", "--size", "3")
    assert (code, err) == (0, "")
    assert out == THEOREMS_SIZE_3
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f36264ef2fc2031dc3b2978ede78f81060131e357f7e6cd911ab4e0b95320d70")


def test_outputs_are_deterministic(capsys, fixture_dir):
    _, out1, _ = run(capsys, "classify", fixture_path(fixture_dir, "ex6_6"))
    _, out2, _ = run(capsys, "classify", fixture_path(fixture_dir, "ex6_6"))
    assert out1 == out2


def test_non_utf8_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "latin1.sgpd"
    bad.write_bytes(b"kind semigroupoid\nelements \xe9\n")
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_directory_as_file_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "verify", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_closed_stdout_ends_quietly():
    # the reader is gone before the first write, as with `| head -1`
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "constella.cli",
         "enumerate", "--kind", "lrs", "--size", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_enumerate_output_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for kind in ("lrs", "lic"):
        outputs = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-m", "constella.cli",
                 "enumerate", "--kind", kind, "--size", "3"],
                capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0 and proc.stderr == b""
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and outputs[0]


def test_order_cycle_message_does_not_depend_on_the_hash_seed(tmp_path):
    # Every pair of 0 -> 1 -> 2 -> 0 lies on the cycle; the message names
    # the first in carrier order.
    path = tmp_path / "cycle.cst"
    path.write_text(
        "kind constellation\nelements 0 1 2\n"
        + "".join(f"plus {x} {x}\ncomp {x} {x} {x}\n" for x in "012")
        + "order 0 1\norder 1 2\norder 2 0\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "constella.cli", "verify", str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: order is not a partial order: cycle through '0' and '1'\n")


# a constellation file whose identity passes ip1-ip5 but which fails wo
# axioms; its expansion's order is not even reflexive
_INVALID_SOURCE = (
    "kind constellation\nelements a b c\nplus a b\nplus b b\nplus c c\n"
    "comp a b c\ncomp a c c\ncomp b b c\ncomp c b b\ncomp c c b\n"
    "order a b\n")


def test_extend_reports_an_invalid_source(capsys, tmp_path):
    (tmp_path / "t.sgpd").write_text(_INVALID_SOURCE)
    mor = tmp_path / "phi.map"
    mor.write_text("source t.sgpd\ntarget t.sgpd\nmap a a\nmap b b\nmap c c\n")
    code, out, _ = run(capsys, "check-morphism", "--kind", "ip", str(mor))
    assert code == 0
    code, out, err = run(capsys, "extend", "--phi", str(mor))
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["valid"] is False and doc["violations"]
    _, verified, _ = run(capsys, "verify", str(tmp_path / "t.sgpd"))
    assert out == verified


# Runs expand on every fixture and expand and expand --iota on its
# constellation, in one interpreter, and prints every exit code and output.
_EXPAND_ALL = """
import contextlib, io, sys
from pathlib import Path
from constella.cli import main
tmp = Path(sys.argv[1])
for path in sorted(Path(sys.argv[2]).glob("*.sgpd")):
    runs = [["expand", str(path)], ["convert", "--to", "constellation", str(path)]]
    cst = tmp / (path.stem + ".cst")
    for argv in runs + [["expand", str(cst)], ["expand", "--iota", str(cst)]]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if argv[0] == "convert":
            cst.write_text(buf.getvalue())
        print(path.stem, *argv[:-1], code)
        print(buf.getvalue())
"""


def test_expand_output_does_not_depend_on_the_hash_seed(fixture_dir, tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("0", "4242"):  # one directory: --iota prints the file path
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", _EXPAND_ALL, str(tmp_path), str(fixture_dir)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("expand --iota 0") == len(fixtures.all_fixtures())
