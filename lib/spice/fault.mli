(** Deterministic fault injection for convergence testing.

    A fault spec forces one of three failure modes inside the Newton
    loop — a singular matrix, a NaN device evaluation, or immediate
    iteration exhaustion — optionally restricted to ladder rungs below
    a given rung and to a single sweep point.  Tests use it to prove
    that each {!Homotopy} rung actually fires and that its diagnostics
    round-trip; the [CNT_FAULT] environment variable enables the same
    injection through the CLIs.

    Spec syntax (for [CNT_FAULT] and {!parse}):
    [kind[@until][#point]] where [kind] is [singular] | [nan] |
    [exhaust], [until] is a rung name accepted by
    {!Diag.rung_of_string}, and [point] is a float.  Examples:
    ["exhaust"] (always fail), ["exhaust@gmin"] (fail until the
    gmin-stepping rung takes over), ["nan@source#0.3"] (NaN device
    evals at sweep point 0.3 for rungs before source-stepping). *)

type kind = Singular_matrix | Nan_eval | Exhaust_iters

val kind_name : kind -> string

type spec = {
  kind : kind;
  until : Diag.rung option;
      (** fire only for rungs strictly before this one; [None] = every
          rung, which makes the whole ladder fail *)
  point : float option;
      (** fire only when the analysis set this sweep point; [None] =
          everywhere.  A point-restricted spec never fires in a solve
          that has no sweep-point context. *)
}

val parse : string -> (spec, string) result
val to_string : spec -> string

(** {1 Installation} *)

val current : unit -> spec option

val with_faults : spec -> (unit -> 'a) -> 'a
(** Install [spec] for the duration of the callback, then restore the
    previous state (also on exceptions).  The installed spec is a
    process-wide global. *)

(** {1 Solve context}

    Maintained by {!Homotopy} (rung) and the analyses (sweep point) as
    process-wide globals, like the spec. *)

val set_rung : Diag.rung -> unit
val current_rung : unit -> Diag.rung
val set_point : float option -> unit
val current_point : unit -> float option

(** {1 The decision} *)

val fires : kind -> bool
(** Whether the installed spec (if any) forces a failure of [kind] in
    the current rung/point context.  Deterministic: same spec, same
    context, same answer. *)
