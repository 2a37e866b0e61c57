"""Command-line interface.

Subcommands:

  simulate           run a scenario, write the trajectory CSV
  analyze            print a structured analysis report to stdout
  sweep              rerun a scenario over a parameter grid, write a summary CSV
  reproduce-figures  run the five bundled figure scenarios and check each
                     against its own qualitative claim (FIGURE_CLAIMS)
  validate           print the incidence regularity report

Exit codes: 0 success, 1 validation/parse error, 2 verdict failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, prevalence, spectral
from .incidence import LastClassIncidence, validate_regularity
from .model import StoppingRule, Trajectory, simulate, simulate_summary
from .scenario import (
    FIGURE_SCENARIO_NAMES,
    Scenario,
    ScenarioError,
    _parse_float,
    _parse_int,
    figure_scenario,
    figure_scenarios,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    set_scenario_value,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERDICT = 2
EXIT_IO = 3


def _g17(x: float) -> str:
    return f"{x:.17g}"


def _resolve_scenario(ref: str) -> Scenario:
    """A path on disk, or the label of a bundled figure scenario."""
    if Path(ref).exists():
        return load_scenario(ref)
    if ref in FIGURE_SCENARIO_NAMES:
        return figure_scenario(ref)
    raise ScenarioError(f"scenario {ref!r}: no such file or bundled scenario name")


def _apply_stopping_overrides(scenario: Scenario, args) -> StoppingRule:
    stop = scenario.stopping
    return StoppingRule(
        max_steps=args.max_steps if args.max_steps is not None else stop.max_steps,
        eps_z=args.eps_z if args.eps_z is not None else stop.eps_z,
        eps_s=args.eps_s if args.eps_s is not None else stop.eps_s,
    )


# rows formatted per block.  The formatter's numpy temporaries peak near 85
# bytes per value (322 with the byte-template assembly before it), and block
# size sets the writer's peak memory: on the benchmark's deep-trajectory runs
# (2-core x86-64 Linux, Python 3.11, numpy 2.4) peak RSS read 42.72 MB with
# 512-row blocks against 42.49 MB for 256-row blocks of that assembly
# (medians, seeds 21-30).  1024-row blocks ran about 4% faster again but read
# 43.33-43.61 MB against 42.45-42.74 (seeds 21-24)
_CSV_BLOCK_ROWS = 512


def _write_rows(fh, columns, sep: str) -> None:
    """Write rows `t sep column...` for t = 0, 1, ..., every value in "%.17g"
    (t too: "%.17g" of a float t below 2**53 is "%d" of t)."""
    # imported on the first write, so commands that write no rows never load it
    from ._format import format_rows

    rows = len(columns[0])
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        block = slice(start, start + _CSV_BLOCK_ROWS)
        t = np.arange(start, min(start + _CSV_BLOCK_ROWS, rows), dtype=np.float64)
        fh.write(format_rows(np.column_stack([t] + [c[block] for c in columns]), sep))


def _write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    n = traj.params.n
    with open(path, "wb") as fh:
        stage_cols = ",".join(f"I{j + 1}" for j in range(n))
        fh.write(f"t,S,{stage_cols},R,Z,phi\n".encode())
        _write_rows(fh, (traj.S, traj.I, traj.R, traj.Z, traj.phi), ",")
        fh.write(f"# S_inf_estimate = {_g17(traj.S_inf)}\n"
                 f"# stop_reason = {traj.stop_reason}\n"
                 f"# steps = {traj.n_steps}\n".encode())


def cmd_simulate(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    stopping = _apply_stopping_overrides(scenario, args)
    traj = simulate(scenario.initial, scenario.params, scenario.incidence, stopping)
    _write_trajectory_csv(traj, Path(args.out))
    print(f"wrote {args.out}: {traj.n_steps} steps, stop_reason = {traj.stop_reason}, "
          f"S_inf_estimate = {_g17(traj.S_inf)}")
    if traj.stop_reason != "converged":
        print("warning: run hit max_steps before converging; output is partial",
              file=sys.stderr)
    return EXIT_OK


def _analyze_lines(scenario: Scenario, stopping: StoppingRule):
    params, incidence, initial = scenario.params, scenario.incidence, scenario.initial
    lines = []
    put = lines.append
    put(("label", scenario.label))
    put(("family", incidence.family))
    put(("n", str(params.n)))
    put(("N", _g17(params.N)))
    R0 = spectral.r0(params, incidence)
    put(("R0", _g17(R0)))
    put(("delta", _g17(spectral.delta(params, incidence))))
    put(("r0_spectral_nrv", _g17(spectral.nrv(spectral.build_B(params.N, params, incidence.r)))))

    bounds = asymptotics.final_size_bounds(initial, params, incidence)
    put(("upper_bound", _g17(bounds.upper) if bounds.upper is not None
         else f"n/a ({bounds.upper_reason})"))
    put(("lower_bound", _g17(bounds.lower) if bounds.lower is not None
         else f"n/a ({bounds.lower_reason})"))

    try:
        eq = asymptotics.final_size_equation_solve(initial, params, incidence)
    except (TypeError, ValueError) as exc:
        put(("S_inf_equation", f"n/a ({exc})"))
    else:
        put(("S_inf_equation", _g17(eq.s_inf)))

    traj = simulate(initial, params, incidence, stopping)
    put(("stop_reason", traj.stop_reason))
    put(("steps", str(traj.n_steps)))
    put(("S_inf_simulated", _g17(traj.S_inf) if traj.stop_reason == "converged"
         else f"n/a (not converged; last S = {_g17(traj.S_inf)})"))

    if traj.stop_reason == "converged" and initial.satisfies_initial_condition():
        try:
            ld = asymptotics.limit_direction(traj)
            put(("perron_rho", _g17(ld.rho)))
            put(("perron_vector", ", ".join(_g17(v) for v in ld.perron_vector)))
            put(("limit_direction_error", _g17(ld.max_abs_error)))
        except ValueError as exc:
            put(("limit_direction_error", f"n/a ({exc})"))
        ts = max(asymptotics.tail_sum_check(traj, t0).max_rel_error
                 for t0 in (0, params.n, 2 * params.n)
                 if t0 <= traj.n_steps)
        put(("tail_sum_max_rel_error", _g17(ts)))
    else:
        put(("limit_direction_error", "n/a (needs a converged epidemic run)"))
        put(("tail_sum_max_rel_error", "n/a (needs a converged epidemic run)"))

    mono = asymptotics.monotonicity_onset(traj)
    put(("monotonicity_onset", str(mono.onset) if mono.onset is not None
         else "n/a (no componentwise-strict decrease recorded)"))
    if mono.onset is not None:
        put(("monotonicity_persistent", str(mono.persistent)))

    shape = prevalence.classify_shape(traj.Z)
    put(("prevalence_shape", shape.classification))
    put(("prevalence_peaks", ", ".join(str(t) for t in shape.peak_times) or "none"))
    put(("initial_rise_observed", str(shape.initial_rise)))

    rise = prevalence.initial_rise_predicate_general(initial, params, incidence)
    put(("rise_predicted", str(rise.predicted) if rise.predicted is not None
         else f"n/a ({rise.reason})"))
    if rise.c is not None:
        put(("rise_threshold_c", _g17(rise.c)))

    if not np.any(incidence.r[:-1] > 0.0):
        decay = prevalence.threshold_decay_predicate(traj)
        put(("threshold_decay_from", str(decay.holds_from)
             if decay.holds_from is not None else "n/a (S never crossed N/R0)"))
        if decay.holds_from is not None:
            put(("threshold_decay_verified", str(decay.verified)))
        if isinstance(incidence, LastClassIncidence):
            put(("ratio_condition_holds", str(prevalence.monotone_decay_ratio_check(incidence))))
            if params.N / R0 < initial.S < params.N:
                ob = prevalence.outbreak_predicate_lastclass(initial, params, incidence)
                put(("lastclass_rise_predicted", str(ob.rise_predicted)))
                put(("lastclass_eta_witness", _g17(ob.eta_witness)
                     if ob.eta_witness is not None else "none"))
            else:
                put(("lastclass_rise_predicted", "n/a (needs S(0) in (N/R0, N))"))
    else:
        put(("threshold_decay_from", "n/a (needs r_1..r_{n-1} = 0)"))
    return lines


def cmd_analyze(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    stopping = _apply_stopping_overrides(scenario, args)
    for key, value in _analyze_lines(scenario, stopping):
        print(f"{key} = {value}")
    return EXIT_OK


def _parse_grid(text: str) -> list:
    """Comma list of values, or lo:hi:count for a uniform grid."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ScenarioError(f"grid {text!r}: expected lo:hi:count")
        lo, hi = (_parse_float(part, "--grid") for part in parts[:2])
        count = _parse_int(parts[2], "--grid")
        if count < 1:
            raise ScenarioError("grid count must be at least 1")
        return [float(v) for v in np.linspace(lo, hi, count)]
    values = [_parse_float(tok, "--grid") for tok in text.replace(",", " ").split()]
    if not values:
        raise ScenarioError("empty sweep grid")
    return values


def cmd_sweep(args) -> int:
    base = _resolve_scenario(args.scenario)
    grid = _parse_grid(args.grid)
    base_data = scenario_to_dict(base)
    built = {}  # the sections the swept entry leaves alone are built once
    rows = []
    for value in grid:
        data = {section: dict(entries) for section, entries in base_data.items()}
        set_scenario_value(data, args.param, value)
        scenario = scenario_from_dict(data, built)
        stopping = _apply_stopping_overrides(scenario, args)
        run = simulate_summary(scenario.initial, scenario.params, scenario.incidence, stopping)
        rows.append((
            value,
            spectral.r0(scenario.params, scenario.incidence),
            run.S_inf,
            float(run.Z.max()),
            int(run.Z.argmax()),
            run.onset,
        ))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("value,R0,S_inf,peak_Z,peak_time,onset_t0\n")
        for value, R0, s_inf, peak_z, peak_t, onset in rows:
            onset_text = "" if onset is None else str(onset)
            fh.write(f"{_g17(value)},{_g17(R0)},{_g17(s_inf)},"
                     f"{_g17(peak_z)},{peak_t},{onset_text}\n")
    print(f"wrote {args.out}: {len(rows)} grid points over {args.param}")
    return EXIT_OK


def _rises_somewhere(Z: np.ndarray):
    rises = np.nonzero(np.diff(Z) > 0.0)[0]
    if rises.size == 0:
        return False, "Z never rises"
    return True, f"Z rises at t = {rises[0]}"


def _falls_before_rising(Z: np.ndarray):
    d = np.diff(Z)
    falls = np.nonzero(d < 0.0)[0]
    rises = np.nonzero(d > 0.0)[0]
    if falls.size == 0 or rises.size == 0:
        return False, f"Z never {'falls' if falls.size == 0 else 'rises'}"
    first_fall, first_rise = falls[0], rises[0]
    if first_fall < first_rise:
        return True, (f"Z first falls at t = {first_fall}, "
                      f"before its first rise at t = {first_rise}")
    return False, (f"Z first rises at t = {first_rise}, "
                   f"before its first fall at t = {first_fall}")


def _rises_at_start(Z: np.ndarray):
    if prevalence.classify_shape(Z).initial_rise:
        return True, "Z(1) > Z(0)"
    return False, "Z(1) <= Z(0)"


def _multi_peak(Z: np.ndarray):
    shape = prevalence.classify_shape(Z)
    peaks = ", ".join(str(t) for t in shape.peak_times) or "none"
    return (shape.classification == "multi-peak",
            f"Z is {shape.classification} (peaks at t = {peaks})")


# Each bundled figure's qualitative claim, as its scenario file states it:
# (R0 above 1?, check of the prevalence series Z).  fig3-top-left and
# fig3-top-right share every parameter and differ only in the seeded stage.
FIGURE_CLAIMS = {
    "fig2-left": (False, _rises_somewhere),
    "fig2-right": (False, _rises_somewhere),
    "fig3-top-left": (True, _falls_before_rising),
    "fig3-top-right": (True, _rises_at_start),
    "fig3-bottom": (True, _multi_peak),
}


def _figure_verdict(label: str, scenario: Scenario, traj: Trajectory):
    """(passed, reason) for the recorded qualitative claim of a figure run."""
    if label not in FIGURE_CLAIMS:
        raise ValueError(f"figure {label!r}: no recorded claim to check")
    supercritical, shape_claim = FIGURE_CLAIMS[label]
    R0 = spectral.r0(scenario.params, scenario.incidence)
    if supercritical:
        r0_ok = R0 > 1.0
        relation = ">" if r0_ok else "!>"
    else:
        r0_ok = R0 < 1.0
        relation = "<" if r0_ok else "!<"
    shape_ok, shape_text = shape_claim(traj.Z)
    return r0_ok and shape_ok, f"R0 = {R0:.6f} {relation} 1; {shape_text}"


def cmd_reproduce_figures(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    verdicts = []
    for label, scenario in figure_scenarios().items():
        traj = simulate(scenario.initial, scenario.params, scenario.incidence,
                        scenario.stopping)
        _write_trajectory_csv(traj, out_dir / f"{label}.csv")
        with open(out_dir / f"{label}.dat", "wb") as fh:
            _write_rows(fh, (traj.Z,), " ")
        passed, reason = _figure_verdict(label, scenario, traj)
        verdicts.append((label, passed, reason))
    with open(out_dir / "verdicts.txt", "w", encoding="utf-8", newline="\n") as fh:
        for label, passed, reason in verdicts:
            line = f"{label} {'PASS' if passed else 'FAIL'} {reason}"
            fh.write(line + "\n")
            print(line)
    return EXIT_OK if all(p for _, p, _ in verdicts) else EXIT_VERDICT


def cmd_validate(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    report = validate_regularity(scenario.incidence)
    print(f"family = {report.family}")
    print(f"analytic = {report.analytic}")
    print(f"range_ok = {report.range_ok}")
    print(f"zero_ok = {report.zero_ok}")
    print(f"gradient_ok = {report.gradient_ok}")
    print(f"r_last_ok = {report.r_last_ok}")
    print(f"concave_ok = {report.concave_ok}")
    print(f"points_checked = {report.points_checked}")
    print(f"passed = {report.passed}")
    for failure in report.failures:
        print(f"failure: {failure}")
    return EXIT_OK if report.passed else EXIT_VERDICT


def _add_common(parser: argparse.ArgumentParser, need_out: bool) -> None:
    parser.add_argument("--scenario", required=True,
                        help="scenario file path, or a bundled name like fig2-left")
    if need_out:
        parser.add_argument("--out", required=True, help="output path")
    parser.add_argument("--max-steps", type=int, default=None)
    parser.add_argument("--eps-z", type=float, default=None,
                        help="absolute prevalence cutoff for convergence")
    parser.add_argument("--eps-s", type=float, default=None,
                        help="absolute susceptible-decrement cutoff for convergence")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (about 0.7 ms) and shared."""
    parser = argparse.ArgumentParser(
        prog="spepi",
        description="Discrete-time staged-progression epidemic models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write the trajectory CSV")
    _add_common(p, need_out=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="print the full analysis report")
    _add_common(p, need_out=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="rerun a scenario over a parameter grid")
    _add_common(p, need_out=True)
    p.add_argument("--param", required=True,
                   help="scenario entry to sweep, e.g. incidence.beta[2]")
    p.add_argument("--grid", required=True,
                   help="comma-separated values, or lo:hi:count")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce-figures",
                       help="run the bundled figure scenarios and check their claims")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_reproduce_figures)

    p = sub.add_parser("validate", help="incidence regularity report")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
