(** DC analyses: nonlinear operating point and DC sweeps of a voltage
    source, both solved through the {!Homotopy} convergence ladder.

    A solve the full ladder cannot rescue raises
    {!Diag.Convergence_failure} with the complete strategy trail;
    {!Analysis_error} is reserved for deck-level semantic errors
    (unknown source names). *)

exception Analysis_error of string

type op_result = {
  compiled : Mna.compiled;
  solution : float array;
}

val operating_point :
  ?gmin:float ->
  ?tol:float ->
  ?max_iter:int ->
  ?policy:Homotopy.policy ->
  ?analysis:string ->
  Circuit.t ->
  op_result
(** Nonlinear operating point via {!Homotopy.solve} (default policy:
    {!Homotopy.default}).  [analysis] labels any resulting
    {!Diag.Convergence_failure} (default ["op"]; AC passes ["ac"]). *)

val voltage : op_result -> string -> float
val current : op_result -> string -> float
(** Current through a named voltage source. *)

val stats : op_result -> Mna.stats
(** Solver telemetry accumulated while computing this result. *)

val solve_compiled :
  ?gmin:float ->
  ?tol:float ->
  ?max_iter:int ->
  ?policy:Homotopy.policy ->
  ?analysis:string ->
  Mna.compiled ->
  float array
(** Operating point of an already-compiled circuit (same ladder as
    {!operating_point}), reusing its solver workspace and accumulating
    into its telemetry. *)

val set_vsource : Circuit.t -> string -> float -> Circuit.t
(** Copy of the circuit with one voltage source replaced by a DC value
    (raises {!Analysis_error} if the source does not exist). *)

type sweep_result = {
  compiled : Mna.compiled;  (** shared by every point *)
  sweep_values : float array;
  points : op_result array;
}

val sweep :
  ?gmin:float ->
  ?tol:float ->
  ?max_iter:int ->
  ?policy:Homotopy.policy ->
  Circuit.t ->
  source:string ->
  start:float ->
  stop:float ->
  step:float ->
  sweep_result
(** Sweep the DC value of [source] as one continuation.  The circuit is
    compiled once and the swept source overridden by name, so every
    point shares one matrix structure.  Point 0 solves cold through the
    {!Homotopy} ladder; point [i] warm-starts plain Newton from the
    solution of point [i - 1] and climbs the ladder only when that
    warm start fails.  Points are solved in index order on the calling
    domain, and each emits a [Sweep_point] progress tick with
    [k = i + 1].  Raises [Invalid_argument] when [step <= 0], when
    [stop < start], or when any bound is not finite; raises
    {!Analysis_error} when [source] names no voltage source; raises
    {!Diag.Convergence_failure} (with the failing bias in
    [sweep_point]) when the ladder cannot rescue a point.  When [step]
    does not divide the range, the sweep stops at the last point not
    beyond [stop]. *)

val sweep_voltage : sweep_result -> string -> float array
val sweep_stats : sweep_result -> Mna.stats
(** Telemetry accumulated across all sweep points (the compiled
    circuit is shared, so this is one record). *)
