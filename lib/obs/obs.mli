(** Engine-wide telemetry: nested wall-clock spans, named counters and
    value histograms behind one global registry.

    The registry is {e disabled by default}; every recording call
    checks a single mutable bool first, so instrumentation left in hot
    paths costs one predictable branch when telemetry is off.
    Instruments are interned by name — look them up once at module
    init and hold the handle; the hot path performs no hashing.

    Each counter keeps one value and each histogram one sample buffer;
    spans share one stack and one event list.  Recording takes no
    lock: every analysis runs on its caller's domain.

    Typical use:
    {[
      let c_evals = Obs.counter "mna.device_evals"

      let f x =
        Obs.span "mna.assemble" @@ fun () ->
        Obs.incr c_evals;
        ...
    ]} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every counter, empty every histogram, drop all span events and
    any open span stack, and restart the epoch.  Registered instrument
    handles stay valid. *)

val now : unit -> float
(** The registry clock, seconds.  Consume only differences. *)

val epoch : unit -> float
(** Clock value when the registry was last enabled or reset; span
    timestamps in exports are relative to this. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Intern a counter by name (idempotent). *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1).  Counters are monotonic: a negative [by]
    raises [Invalid_argument] even when the registry is disabled. *)

val value : counter -> int
val counter_name : counter -> string

val counters : unit -> (string * int) list
(** Every registered counter with its value, sorted by name. *)

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram
(** Intern a histogram by name (idempotent). *)

val observe : histogram -> float -> unit
(** Record a sample (no-op when disabled).  Samples are stored exactly;
    quantiles are computed on demand. *)

val quantile : histogram -> float -> float
(** Quantile [q] in [0, 1] by linear interpolation between order
    statistics ([q = 0] is the minimum, [q = 1] the maximum).  Raises
    [Invalid_argument] on an empty histogram or [q] outside [0, 1]. *)

type hist_summary = {
  count : int;
  minimum : float;
  maximum : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summary : histogram -> hist_summary option
(** [None] when the histogram has no samples. *)

val histogram_count : histogram -> int
val histogram_values : histogram -> float array
(** A copy of the recorded samples (treat the order as
    unspecified). *)

val histograms : unit -> (string * hist_summary) list
(** Every non-empty histogram with its summary, sorted by name. *)

(** {1 Spans} *)

type span_token

val start_span : string -> span_token
val end_span : ?args:(string * float) list -> span_token -> unit
(** Close a span, attaching optional numeric arguments (they appear in
    Chrome-trace exports).  Spans left open above [tok] on the stack —
    an exception unwound past their [end_span] — are closed at the same
    instant. *)

val span : ?args:(string * float) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span; the span closes on both
    return and exception.  When disabled this is exactly [f ()]. *)

(** {1 Completed events} *)

type event = {
  ev_path : string;
      (** full nesting path, ["parent/child"] — the aggregation key *)
  ev_name : string;
  ev_depth : int;
  ev_start : float;  (** absolute clock value, seconds *)
  ev_dur : float;  (** seconds *)
  ev_args : (string * float) list;
}

val events : unit -> event list
(** Completed spans in completion order. *)

val event_count : unit -> int
