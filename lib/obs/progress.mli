(** Live progress streaming: a throttled event stream the analyses
    publish while they run.

    Where {!Obs} answers "where did the time go" after a run, this
    module answers "is the run healthy" during one: analysis
    start/finish, DC sweep point [k]/[N], transient time [t]/[t_stop],
    Monte-Carlo sample [i]/[N], and convergence-ladder rung
    escalations.

    The stream is {e off by default}: with no sink installed every
    {!emit} call site costs one predictable branch ({!on} returns
    [false]), so hooks stay in the hot paths for free.  Installing a
    sink turns the stream on.  Emission is serialised by a mutex, so
    events from two threads never interleave mid-line.

    Events split into {e milestones} (analysis start/finish, rung
    escalations) and {e ticks} (per-point/per-step updates).
    Milestones always reach every sink and carry no wall-clock data,
    so a deck's milestone sequence is bitwise-identical on every run
    (pinned by [test/test_flight.ml]).  Ticks arrive in analysis order
    but are throttled per sink by a minimum wall-clock interval;
    time-derived rendering (rates, ETA) happens inside the sink, never
    in the event. *)

type event =
  | Analysis_start of { analysis : string; label : string }
  | Analysis_finish of { analysis : string; label : string; points : int }
      (** [points]: rows produced (sweep points, accepted transient
          steps + 1, samples) *)
  | Sweep_point of { k : int; n : int; value : float }
      (** sweep point [k] of [n] finished, in sweep order; [value] is
          the swept bias of that point *)
  | Tran_step of { t : float; t_stop : float; accepted : int; rejected : int }
  | Sample of { label : string; i : int; n : int }
      (** generic ensemble progress: Monte-Carlo samples,
          characterisation curves *)
  | Rung_escalation of { rung : string; sweep_point : float option }
      (** the convergence ladder left plain Newton; [sweep_point] is
          the bias/time context when the analysis set one *)

val milestone : event -> bool
(** Milestones bypass throttling and are deterministic across runs:
    [Analysis_start], [Analysis_finish], [Rung_escalation]. *)

val event_to_json : event -> string
(** One-line JSON object with an ["ev"] tag and a ["milestone"] bool.
    Contains no wall-clock data — two runs of the same deck produce
    identical milestone lines. *)

(** {1 Sinks} *)

type sink

val sink : ?min_interval:float -> (event -> unit) -> sink
(** A custom sink.  Ticks are dropped unless at least [min_interval]
    seconds (default 0) passed since the sink's last accepted tick;
    milestones always pass.  [Sys_error] from the callback is swallowed
    — progress must never kill a solve. *)

val tty : ?min_interval:float -> out_channel -> sink
(** Human-readable lines ([min_interval] default 0.1 s), one per
    event, with sink-side percent/rate/ETA rendering. *)

val jsonl : ?min_interval:float -> out_channel -> sink
(** One {!event_to_json} line per event ([min_interval] default
    0.05 s), flushed per line. *)

val lines : ?min_interval:float -> (string -> unit) -> sink
(** Like {!jsonl} but the {!event_to_json} line (no newline) goes to a
    callback instead of an out_channel — the sink the [cntd] daemon
    installs to frame progress events onto a client socket.
    [min_interval] default 0.05 s.  Exceptions other than [Sys_error]
    raised by the callback propagate out of {!emit} (the dispatch
    mutex is released first): that is the supported way to cancel a
    running solve from the outside — request deadlines and
    disconnected daemon clients both abort this way. *)

(** {1 Installation} *)

val on : unit -> bool
(** True when at least one sink is installed — the one branch every
    call site pays when the stream is off. *)

val emit : event -> unit
(** Deliver to every installed sink (no-op without sinks).  Safe from
    any thread. *)

val install : sink -> unit
val with_sink : sink -> (unit -> 'a) -> 'a
(** Install for the duration of the callback, then remove (also on
    exceptions). *)
