open! Import

(** S1xx — static check of sweep-spec JSON files.

    A thin adapter over {!Sweep_spec.lint_file}: each spec issue becomes
    a located diagnostic with its stable code preserved, so
    [arpanet_check] and [arpanet_sweep] report identical findings.

    - [S100] (error) — unreadable file, invalid JSON, or bad shape
    - [S101] (error) — unknown scenario: no such builtin or file, or the
      file does not parse
    - [S102] (error) — an empty grid axis (the sweep has no points)
    - [S103] (warning) — duplicate axis value (identical points repeat)
    - [S104] (error) — bad seed range (negative seed, or a range whose
      count is not positive yields an empty axis)
    - [S105] — load scale out of range: error when not positive, warning
      above 10
    - [S106] (error) — non-positive periods, negative warmup, or warmup
      consuming every period

    - [S109] (error) — a degenerate [critical_load] ramp

    [S107] and [S108] are retired: they named errors of
    [arpanet_sweep]'s former shard, merge and resume options, and are
    not reused. *)

val check_file : string -> Diagnostic.t list * Sweep_spec.t option
(** Lint one spec file; the spec is present iff it parsed (it may still
    carry error diagnostics — check before running). *)
