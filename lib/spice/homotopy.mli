(** The convergence ladder: policy-driven escalation from plain Newton
    through damped Newton, gmin stepping, source stepping, and combined
    gmin+source continuation.

    Every rung that runs is recorded as a {!Diag.attempt} in the
    returned strategy trail, so callers (and the [cspice] exit-3 error
    report) can show exactly which strategies ran, how many iterations
    each spent, and why the failing ones stopped.  Continuation rungs
    deform the problem, not the answer: the final solve of every rung
    is the undeformed system at the target gmin and full source
    strength, so a success from any rung satisfies the same equations
    as a plain Newton success. *)

type policy = {
  damped : bool;  (** enable the damped-Newton rung *)
  gmin_stepping : bool;
  source_stepping : bool;
  gmin_source : bool;
  gmin_start : float;
      (** starting gmin of the ramp rungs (default [1e-3]); ramps run
          geometrically down to the target gmin *)
  gmin_steps : int;  (** points in the gmin ramp (default 10) *)
  source_steps : int;  (** points in the source ramp (default 20) *)
}

val default : policy
(** All rungs enabled; [gmin_start = 1e-3], [gmin_steps = 10],
    [source_steps = 20]. *)

val plain_only : policy
(** Every rescue rung disabled — the ladder degenerates to one plain
    Newton attempt.  Used to demonstrate that a deck {e needs} the
    ladder, and as the per-step transient fast path. *)

val with_faults : Fault.spec -> (unit -> 'a) -> 'a
(** {!Fault.with_faults}, re-exported: install a deterministic fault
    for the duration of the callback. *)

val solve :
  ?gmin:float ->
  ?tol:float ->
  ?max_iter:int ->
  ?max_step:float ->
  ?policy:policy ->
  ?ind:Mna.ind_policy ->
  Mna.compiled ->
  eval_wave:(string -> Waveform.t -> float) ->
  cap:Mna.cap_policy ->
  float array ->
  (float array * Diag.trail, Diag.trail) result
(** Climb the ladder from the given initial guess until a rung
    converges.  Each rung restarts from [x0] (a failed rung's iterate
    may be garbage).  [Ok] carries the solution and the trail ending in
    the successful attempt; [Error] carries the full trail of failed
    attempts.  Parameters mirror {!Mna.newton_result}; [gmin] is the
    {e target} gmin that every rung's final solve uses. *)
