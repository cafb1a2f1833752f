(** Transient analysis: implicit time stepping (backward Euler or
    trapezoidal) with a Newton solve per step and automatic step
    halving on convergence failure.  When halving bottoms out at
    [tstep/1024], the full {!Homotopy} ladder runs at the minimum step
    before the analysis gives up with {!Diag.Convergence_failure}. *)

exception Analysis_error of string

type method_ =
  | Backward_euler
  | Trapezoidal

type result = {
  compiled : Mna.compiled;
  times : float array;
  solutions : float array array;
}

val run :
  ?method_:method_ ->
  ?gmin:float ->
  ?tol:float ->
  ?max_newton:int ->
  ?policy:Homotopy.policy ->
  ?initial_condition:float array ->
  Circuit.t ->
  tstep:float ->
  tstop:float ->
  result
(** Integrate from the DC operating point (or a supplied initial
    condition) to [tstop] with nominal step [tstep] (trapezoidal by
    default).  [policy] governs the DC start point and the minimum-step ladder
    rescue (per-step solves stay plain Newton for speed).  Raises
    {!Diag.Convergence_failure} with [sweep_var = "time"] when the
    ladder cannot rescue a step at the minimum size. *)

val stats : result -> Mna.stats
(** Solver telemetry accumulated across the whole run, including the
    DC start point. *)

val voltage : result -> string -> float array
(** Waveform of a node voltage across the stored time points. *)

val vsource_current : result -> string -> float array

val crossing_times :
  ?rising:bool -> result -> string -> float -> float array
(** Interpolated times at which a node voltage crosses a level. *)
