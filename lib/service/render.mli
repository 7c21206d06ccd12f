(** Canonical text renderers for the CLI's cacheable outputs. The CLI
    prints the returned string and stores the same bytes in the result
    cache ({!Cache}), so a warm hit replays output byte-identical to a
    cold run. Every renderer is deterministic for deterministic inputs
    (no clocks, no environment). *)

(** The [analyze] report: config/cost/speedup/coverage block, plus the
    [show_loops] costliest per-loop rows when positive. *)
val report : show_loops:int -> Loopa.Evaluate.report -> string

(** The four cells of one [sweep] table row: configuration, speedup,
    coverage %, static %. *)
val sweep_row : Loopa.Evaluate.report -> string list

(** The end-of-campaign summary: per-target table, totals line (with
    resumed-from-checkpoint / served-from-cache notes), failure
    breakdown, per-config geomeans. Contains [wall_s] values, so two
    runs differ textually even when their checkpoints normalize
    identically. *)
val campaign_summary : Campaign.Runner.summary -> string
