(** Human- and machine-readable views of the telemetry registry. *)

(** One aggregated position in the span tree: spans sharing a nesting
    path merge; the same name under different parents stays distinct. *)
type node = {
  name : string;
  path : string;  (** nesting path, ["parent/child"] *)
  total_s : float;
  self_s : float;  (** total minus children's totals *)
  count : int;  (** completed spans merged into this node *)
  children : node list;
}

val profile_tree : unit -> node list
(** Aggregate completed spans into a forest of root spans, in first-
    completion order. *)

val span_durations : unit -> (string * float array) list
(** Per-path individual span durations (seconds), for latency-
    distribution rendering. *)

val pp_profile : Format.formatter -> unit -> unit
(** The nested span tree (total / self / calls) followed by counter
    values and histogram summaries. *)

val render_profile : unit -> string

val counters_csv : unit -> string
val histograms_csv : unit -> string

val events_jsonl : unit -> string
(** One JSON object per completed span (epoch-relative times), newline
    separated. *)

val prometheus : unit -> string
(** Prometheus text exposition (version 0.0.4) of the registry — the
    scrape format the [cntd] service will serve.  Counters export as
    [cnt_<name>_total] counter metrics, histograms as summaries with
    [quantile] labels (p50/p90/p99) plus [_sum]/[_count], and span
    totals as a [cnt_obs_span_seconds] gauge labelled by nesting path.
    Dots and other non-metric characters in instrument names map to
    underscores. *)
