import re

import pytest

import trielect.cli as cli
from reference import reference_replay
from trielect.cli import main
from trielect.config import IN, OUT, all_in_configuration, load, save
from trielect.generators import erosion_orientation, hexagon, ring18
from trielect.lattice import Cell, neighbor
from trielect.render import render_svg
from trielect.rules import rule_report
from trielect.scheduler import ExecutionResult, Outcome
from trielect.support import Support, format_shape_text


def test_gen_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "h.cfg"
    assert main(["gen", "--shape", "hexagon1", "--init", "erosion", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["verify", "--config", str(out)]) == 0
    text = capsys.readouterr().out
    assert "valid=yes sinks=1" in text


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    argv = ["gen", "--random", "9", "--seed", "5", "--init", "random", "--conflict-prob", "0.1"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_ring18_file(tmp_path, capsys):
    shape = tmp_path / "ring18.shape"
    shape.write_text(format_shape_text(ring18().support.cells))
    rc = main(["gen", "--file", str(shape), "--init", "all-in", "--out", str(tmp_path / "r.cfg")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not simply connected" in err
    # message cites a cell of the enclosed hole
    assert "(" in err and ")" in err


def test_gen_rejects_ring18_shape_name(tmp_path):
    rc = main(["gen", "--shape", "ring18", "--init", "all-in", "--out", str(tmp_path / "r.cfg")])
    assert rc == 2


def test_verify_checks_ring18(tmp_path, capsys):
    # run refuses a support with holes, but verify checks any configuration
    ring = tmp_path / "ring18.cfg"
    save(ring18(), str(ring))
    assert main(["verify", "--config", str(ring)]) == 1
    assert capsys.readouterr().out.startswith("valid=no sinks=18")


def test_gen_unknown_shape(tmp_path):
    assert main(["gen", "--shape", "nope", "--out", str(tmp_path / "x.cfg")]) == 2


def test_run_erosion_is_immediately_final(tmp_path, capsys):
    cfg = tmp_path / "h.cfg"
    main(["gen", "--shape", "hexagon1", "--init", "erosion", "--out", str(cfg)])
    assert main(["run", "--config", str(cfg), "--scheduler", "roundrobin"]) == 0
    assert "FINAL steps=0 sinks=1" in capsys.readouterr().out


def test_run_random_converges_and_traces(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    main(["gen", "--random", "8", "--seed", "3", "--init", "random", "--out", str(cfg)])
    capsys.readouterr()
    trace = tmp_path / "run.trace"
    rc = main([
        "run", "--config", str(cfg), "--scheduler", "random", "--seed", "1",
        "--trace", str(trace),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("FINAL steps=")
    assert "sinks=1" in out
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("# trace shape=")
    assert len(lines) >= 1


def test_run_reports_a_final_configuration_that_is_not_valid_single_sink(
    tmp_path, capsys, monkeypatch
):
    """The verdict is read off the masks; the rule report is printed only
    when it fails.  A run that stops at once on the all-In start stands in
    for a broken engine."""
    cfg = tmp_path / "t.cfg"
    main(["gen", "--shape", "triangle3", "--init", "all-in", "--out", str(cfg)])
    capsys.readouterr()
    monkeypatch.setattr(cli, "drive", lambda c, kind, **_: ExecutionResult(Outcome.FINAL, c, 0))
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().out == (
        "FINAL steps=0 sinks=3\n"
        "final configuration is not a valid single-sink state:\n"
        f"{rule_report(load(str(cfg))).to_text()}\n"
    )


def test_verify_flags_violations(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    main(["gen", "--shape", "triangle3", "--init", "all-in", "--out", str(cfg)])
    rc = main(["verify", "--config", str(cfg), "--per-particle"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "valid=no" in out
    assert "FAIL" in out


def _with_links(cfg, links, state=OUT):
    """``cfg`` with each ``(a, b)`` in ``links`` setting a's link toward b to ``state``."""
    regs = {}
    for a, b in links:
        reg = list(regs.get(a, cfg.regs[a]))
        reg[cfg.port_of(a, b)] = state
        regs[a] = tuple(reg)
    return cfg.with_registers(regs)


def _verify_inputs():
    """The ``verify`` inputs by name: a valid erosion orientation, the same
    with one conflict edge and with one undirected edge, ``ring18``, and a
    directed 6-cycle on the six-cell ring around one empty cell."""
    valid = erosion_orientation(hexagon(2))
    a, b = next((a, b) for a, b in valid.support.edges() if valid.link_toward(a, b) is OUT)
    six = [neighbor(Cell(0, 0), d) for d in range(6)]
    return {
        "valid": valid,
        "conflict": _with_links(valid, [(b, a)]),
        "undirected": _with_links(valid, [(a, b)], IN),
        "ring18": ring18(),
        "six-cycle": _with_links(all_in_configuration(Support(six)), zip(six, six[1:] + six[:1])),
    }


def _object_path_verify(cfg, per_particle):
    """What ``verify`` prints and returns, built from ``rules.rule_report``."""
    report = rule_report(cfg)
    lines = [f"valid={'yes' if report.valid else 'no'} sinks={len(report.sinks)}"]
    if per_particle:
        lines += report.to_records()
    if not report.valid:
        lines.append("violations at: " + ", ".join(f"({c.q} {c.r})" for c in sorted(report.violating)))
    elif len(report.sinks) != 1:
        lines.append("valid configuration without a unique sink; this should be impossible")
    return "\n".join(lines) + "\n", 0 if report.valid and len(report.sinks) == 1 else 1


@pytest.mark.parametrize("name,head", [
    ("valid", "valid=yes sinks=1"),
    ("conflict", "valid=no sinks=1"),
    ("undirected", "valid=no sinks=1"),
    ("ring18", "valid=no sinks=18"),
    ("six-cycle", "valid=yes sinks=0"),
])
def test_verify_reads_its_verdict_off_the_masks(tmp_path, capsys, monkeypatch, name, head):
    """``verify`` prints what the object path's rule report decides, with
    and without ``--per-particle``, and builds the report only for the
    per-particle records."""
    cfg = _verify_inputs()[name]
    path = tmp_path / f"{name}.cfg"
    save(cfg, str(path))
    for per_particle in (False, True):
        argv = ["verify", "--config", str(path)] + ["--per-particle"] * per_particle
        text, code = _object_path_verify(load(str(path)), per_particle)
        assert main(argv) == code
        out = capsys.readouterr().out
        assert out == text and out.splitlines()[0] == head
    if name == "six-cycle":
        assert out.splitlines()[-1].startswith("valid configuration without a unique sink")

    def refuse(c):
        raise AssertionError("rule_report built")

    monkeypatch.setattr(cli, "rule_report", refuse)
    assert main(["verify", "--config", str(path)]) == code
    with pytest.raises(AssertionError, match="rule_report built"):
        main(["verify", "--config", str(path), "--per-particle"])


def test_verify_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("shape\n0 0\ncells\n0 0 | 9 +1 | I I I I I I\n")
    assert main(["verify", "--config", str(bad)]) == 2
    bad.write_text("not a config at all\n")
    assert main(["verify", "--config", str(bad)]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_enum_unique_sink_small(capsys):
    assert main(["enum", "--n", "3", "--check", "unique-sink"]) == 0
    out = capsys.readouterr().out
    assert "supports=11" in out
    assert "0 counterexamples" in out


def test_enum_silence_small(capsys):
    assert main(["enum", "--n", "3", "--check", "silence"]) == 0
    assert "0 counterexamples" in capsys.readouterr().out


def test_enum_witness_and_census(capsys):
    assert main(["enum", "--n", "4", "--check", "boundary-witness"]) == 0
    assert main(["enum", "--n", "4", "--check", "angle-census"]) == 0


def test_enum_parallel_jobs(capsys):
    assert main(["enum", "--n", "4", "--check", "unique-sink", "--jobs", "2"]) == 0
    assert "0 counterexamples" in capsys.readouterr().out


def test_search_unfair_and_replay(tmp_path, capsys):
    cfg_path = tmp_path / "cycle.cfg"
    script_path = tmp_path / "cycle.script"
    rc = main([
        "search-unfair", "--shape", "hexagon1",
        "--out-config", str(cfg_path), "--out-script", str(script_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cycle found" in out and "period" in out

    rc = main([
        "run", "--config", str(cfg_path),
        "--scheduler", f"script:{script_path}", "--max-steps", "60",
    ])
    assert rc == 0
    assert "CAP steps=60" in capsys.readouterr().out


def test_search_unfair_not_found_on_small_shapes(capsys):
    assert main(["search-unfair", "--max-n", "3"]) == 1
    assert "no cycle" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweeps_report_progress_on_stderr(capsys, jobs):
    assert main(["enum", "--n", "4", "--check", "silence", "--jobs", jobs]) == 0
    captured = capsys.readouterr()
    assert captured.out == "check=silence n=4 supports=44\n0 counterexamples\n"
    lines = captured.err.splitlines()
    done = [re.fullmatch(r"enum check=silence done=(\d+)/44 seconds=\d+\.\d\d", l) for l in lines]
    assert all(done) and len(done) == 11  # every fourth support, then the last
    assert [int(m.group(1)) for m in done] == [4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44]
    assert main(["search-unfair", "--max-n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "no cycle found within budget\n"
    assert [re.sub(r"seconds=\d+\.\d\d$", "seconds=S", l) for l in captured.err.splitlines()] == [
        "n=2 supports=3 seconds=S", "n=3 supports=11 seconds=S", "n=4 supports=44 seconds=S",
    ]


def test_render_counts(tmp_path):
    cfg = tmp_path / "h.cfg"
    svg = tmp_path / "h.svg"
    main(["gen", "--shape", "hexagon1", "--init", "erosion", "--out", str(cfg)])
    assert main(["render", "--config", str(cfg), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<circle") == 7
    assert text.count("marker-end") == 12  # every edge directed
    assert text.count('class="cell sink"') == 1
    assert text.count("undirected") >= 1  # style block only


def test_render_all_in_triangle_dashes(tmp_path):
    cfg = tmp_path / "t.cfg"
    svg = tmp_path / "t.svg"
    main(["gen", "--shape", "triangle3", "--init", "all-in", "--out", str(cfg)])
    main(["render", "--config", str(cfg), "--out", str(svg)])
    text = svg.read_text()
    assert text.count('class="edge undirected"') == 3
    assert "marker-end" not in text.split("</defs>")[1]


def test_render_trace_frame(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    trace = tmp_path / "p.trace"
    main(["gen", "--shape", "line2", "--init", "all-in", "--out", str(cfg)])
    main(["run", "--config", str(cfg), "--scheduler", "roundrobin", "--trace", str(trace)])
    svg = tmp_path / "frame.svg"
    rc = main([
        "render", "--config", str(cfg), "--trace", str(trace), "--frame", "1",
        "--out", str(svg),
    ])
    assert rc == 0
    assert 'class="edge directed"' in svg.read_text()


def test_render_trace_frames_match_the_object_path_replay(tmp_path, capsys):
    cfg, trace, svg = tmp_path / "r.cfg", tmp_path / "r.trace", tmp_path / "r.svg"
    main(["gen", "--random", "150", "--seed", "12", "--init", "random", "--out", str(cfg)])
    main(["run", "--config", str(cfg), "--seed", "13", "--trace", str(trace)])
    events = trace.read_text().splitlines()[1:]
    cells = [Cell(int(q), int(r)) for _, q, r, *_ in (line.split() for line in events)]
    start = load(str(cfg))
    last = len(cells)
    assert last > 100
    for frame in (0, 1, last // 2, last, last + 5):
        argv = ["render", "--config", str(cfg), "--trace", str(trace), "--frame", str(frame)]
        assert main(argv + ["--out", str(svg)]) == 0
        assert svg.read_text() == render_svg(reference_replay(start, cells[:frame])), frame


def test_render_rejects_trace_of_another_shape(tmp_path, capsys):
    small, large = tmp_path / "h1.cfg", tmp_path / "h2.cfg"
    trace = tmp_path / "h1.trace"
    main(["gen", "--shape", "hexagon1", "--init", "all-in", "--out", str(small)])
    main(["gen", "--shape", "hexagon2", "--init", "all-in", "--out", str(large)])
    main(["run", "--config", str(small), "--scheduler", "roundrobin", "--trace", str(trace)])
    capsys.readouterr()
    argv = ["render", "--trace", str(trace), "--frame", "3", "--out", str(tmp_path / "f.svg")]
    assert main(argv + ["--config", str(small)]) == 0
    assert main(argv + ["--config", str(large)]) == 2
    assert "does not name this configuration's shape=" in capsys.readouterr().err


def test_usage_error_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--shape", "hexagon1"])  # missing --out
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["enum", "--n", "3", "--check", "bogus"])
    assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 2


def test_enum_over_budget_exits_2(capsys, monkeypatch):
    import trielect.oracle as oracle_mod

    def tiny_budget(support, max_edges=24):
        raise oracle_mod.StateSpaceTooLarge("over budget")

    monkeypatch.setattr(oracle_mod, "check_unique_sink", tiny_budget)
    assert main(["enum", "--n", "2", "--check", "unique-sink"]) == 2
    assert "over budget" in capsys.readouterr().err


def test_run_rejects_alien_script_cells(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    main(["gen", "--shape", "triangle3", "--init", "all-in", "--out", str(cfg)])
    script = tmp_path / "bad.script"
    script.write_text("9 9\n")
    rc = main(["run", "--config", str(cfg), "--scheduler", f"script:{script}"])
    assert rc == 2
    assert "scripted cells not in the support: (9 9)\n" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["shape", "script"])
def test_an_empty_cell_file_is_named(tmp_path, capsys, kind):
    cfg = tmp_path / "t.cfg"
    main(["gen", "--shape", "triangle3", "--init", "all-in", "--out", str(cfg)])
    empty = tmp_path / "empty"
    empty.write_text("# no cells\n")
    if kind == "shape":
        argv = ["gen", "--file", str(empty), "--out", str(tmp_path / "out")]
    else:
        argv = ["run", "--config", str(cfg), "--scheduler", f"script:{empty}"]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {kind} file {empty}: contains no cells\n"


#: The whole message of the inputs that once leaked Python's own wording.
_PINNED_ERRORS = {
    "gen --shape parallelogram3x --out {out}":
        "error: shape name 'parallelogram3x' does not match parallelogramWxH\n",
    "verify --config {trace}":
        "error: line 5: expected 'offset chirality' as two integers, got '0 1 1'\n",
    "gen --shape line0 --out {out}": "error: shape name 'line0': n must be >= 1 in lineN\n",
    "gen --shape hexagon-1 --out {out}":
        "error: shape name 'hexagon-1': k must be >= 0 in hexagonK\n",
    "gen --shape parallelogram0x3 --out {out}":
        "error: shape name 'parallelogram0x3': sides must be >= 1 in parallelogramWxH\n",
    "search-unfair --shape line0": "error: shape name 'line0': n must be >= 1 in lineN\n",
}


def _exit_code(argv):
    """main's return code, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, trace_text",
    [
        (["run", "--config", "{cfg}", "--max-steps", "-1"], None),
        (["gen", "--random", "0", "--out", "{out}"], None),
        (["gen", "--shape", "line2", "--init", "random", "--conflict-prob", "2", "--out", "{out}"], None),
        (["enum", "--n", "0", "--check", "silence"], None),
        (["search-unfair", "--shape", "nope"], None),
        (["render", "--config", "{cfg}", "--trace", "{trace}", "--out", "{out}"], "garbage\n"),
        (["render", "--config", "{cfg}", "--trace", "{trace}", "--frame", "1", "--out", "{out}"],
         "0 9 9 1 0 1 0\n"),
        (["render", "--config", "{cfg}", "--frame", "-1", "--out", "{out}"], None),
        (["render", "--config", "{cfg}", "--trace", "{trace}", "--out", "{out}"],
         "# trace shape=000000000000 scheduler=roundrobin cap=10\n0 0 0 1 0 1 0\n"),
        (["search-unfair", "--max-n", "0"], None),
        (["search-unfair", "--max-n", "2", "--max-states", "-1"], None),
        (["enum", "--n", "2", "--check", "silence", "--jobs", "0"], None),
        (["enum", "--n", "2", "--check", "silence", "--jobs", "-2"], None),
        (["run", "--config", "{ring}"], None),
        (["verify", "--config", "{binary}"], None),
        (["gen", "--file", "{binary}", "--out", "{out}"], None),
        (["run", "--config", "{cfg}", "--scheduler", "script:{binary}"], None),
        (["render", "--config", "{cfg}", "--trace", "{trace}", "--out", "{out}"], b"\xff\xfe"),
        (["run", "--config", "{cfg}", "--scheduler", "script:{empty}"], None),
        (["search-unfair", "--shape", "hexagon2"], None),
        (["gen", "--shape", "parallelogram3x", "--out", "{out}"], None),
        (["verify", "--config", "{trace}"],
         "shape\n0 0\n1 0\ncells\n0 0 | 0 1 1 | I I I I I I\n1 0 | 0 +1 | I I I I I I\n"),
        (["gen", "--shape", "line0", "--out", "{out}"], None),
        (["gen", "--shape", "hexagon-1", "--out", "{out}"], None),
        (["gen", "--shape", "parallelogram0x3", "--out", "{out}"], None),
        (["search-unfair", "--shape", "line0"], None),
        (["gen", "--file", "{trace}", "--out", "{out}"], "0 0\n0 1000000000000\n"),
    ],
)
def test_bad_inputs_exit_2_without_traceback(tmp_path, capsys, argv, trace_text):
    cfg = tmp_path / "p.cfg"
    main(["gen", "--shape", "line2", "--init", "all-in", "--out", str(cfg)])
    ring = tmp_path / "ring18.cfg"
    save(ring18(), str(ring))
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe")  # not UTF-8
    empty = tmp_path / "empty"
    empty.write_text("")
    trace = tmp_path / "bad.trace"
    if isinstance(trace_text, bytes):
        trace.write_bytes(trace_text)
    elif trace_text is not None:
        trace.write_text(trace_text)
    capsys.readouterr()
    paths = {
        "cfg": str(cfg),
        "ring": str(ring),
        "binary": str(binary),
        "empty": str(empty),
        "out": str(tmp_path / "out"),
        "trace": str(trace),
    }
    assert _exit_code([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error: " in err
    assert "Traceback" not in err
    if " ".join(argv) in _PINNED_ERRORS:
        assert err == _PINNED_ERRORS[" ".join(argv)]
