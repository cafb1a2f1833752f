(** Modified nodal analysis with a symbolic/numeric split.

    {!compile} runs once per netlist: it resolves node names to unknown
    indices, lowers elements to a typed device array, records the
    Jacobian sparsity pattern from a symbolic stamping pass, and
    allocates the {!Cnt_numerics.Linear_solver} (sparse LU under a
    minimum-degree ordering).  Each Newton iteration then refills the
    matrix values in place by replaying the recorded stamp program —
    the inner loop performs no matrix allocation.

    Unknowns are node voltages first, then one branch current per
    voltage source or inductor. *)

exception No_convergence of Diag.newton_report
(** Raised by {!newton}; the report carries the structured stop reason,
    iteration count, residual and worst-residual unknown. *)

(** Accumulated per-analysis solver telemetry.  The structural fields
    ([backend], [unknowns], [nonzeros]) are fixed at compile time; the
    counters accumulate across {!newton} calls. *)
type stats = {
  backend : string;
      (** linear-solver name: ["sparse"] for MNA, ["dense-complex"]
          for the AC phasor solves *)
  unknowns : int;
  nonzeros : int;  (** stored matrix entries *)
  mutable newton_iterations : int;
  mutable linear_solves : int;
  mutable device_evals : int;
      (** CNFET table rows refilled: one per CNFET per refill, whether
          evaluated or bypassed *)
  mutable device_bypassed : int;
      (** of those, the rows whose bias had not moved since their last
          evaluation, which kept it instead of evaluating *)
  mutable assemble_s : float;  (** wall time refilling matrix and rhs *)
  mutable solve_s : float;  (** wall time factoring and solving *)
  mutable residual : float;
      (** inf-norm Newton residual [||J x - b||] at the last
          linearisation point *)
}

val fresh_stats : backend:string -> unknowns:int -> nonzeros:int -> stats
(** A zeroed record for analyses that run their own solver (AC). *)

val add_stats : into:stats -> stats -> unit
(** Fold the mutable counters of the second record into [into],
    leaving structural fields alone (residuals combine by max).  Lets
    an AC report include the operating-point solve it linearised
    around. *)

val pp_stats : Format.formatter -> stats -> unit

type compiled

val compile : Circuit.t -> compiled
(** Symbolic compilation: pattern, stamp program, solver workspace and
    the CNFET device table are allocated here, once.  Each Newton
    iteration then refills CNFET stamps in three passes over that
    structure-of-arrays table: gather bias points, evaluate every row
    whose bias moved through {!Cnt_core.Device_model.eval} (one
    range-kernel call per run of same-backend rows), and scatter every
    stamp straight into the solver's value array along the recorded
    program.  A row whose bias moved by no more than the Newton update
    tolerance keeps its last evaluation (the bypass).  A refill
    allocates nothing per device (see [docs/ASSEMBLY.md]). *)

(** {2 Compile cache}

    Opt-in process-global memo over {!compile}, keyed by the circuit
    value's {e physical} identity.  A hit returns a clone of the
    cached template — symbolic pattern, node tables, device array and
    solver ordering shared; numeric workspace and stats fresh — so
    repeated compiles of the same circuit value skip the whole symbolic
    pass while remaining bitwise equivalent to a cold compile.
    Long-running services ([cntd]) that keep one canonical parsed deck
    per content hash enable this; the one-shot CLIs never do.
    Thread-safe. *)

val enable_compile_cache : ?max_entries:int -> unit -> unit
(** Turn the cache on ([max_entries] default 64; FIFO eviction).
    Raises [Invalid_argument] when [max_entries < 1]. *)

val compile_cache_stats : unit -> int * int
(** [(hits, misses)] since the process started.  Also ticked as the
    telemetry counters [mna.compile_cache.hits] / [.misses]. *)

val size : compiled -> int
(** Number of unknowns: non-ground nodes plus voltage-source and
    inductor branches. *)

val circuit : compiled -> Circuit.t
(** The netlist this was compiled from. *)

val node_count : compiled -> int
(** Number of non-ground nodes (indices below this are node
    voltages). *)

val stats : compiled -> stats
(** The telemetry record this compiled circuit accumulates into. *)

val node_id : compiled -> string -> int
(** Index of a node ([-1] for ground). *)

val unknown_name : compiled -> int -> string
(** Human name of any unknown index: the node name for voltage rows,
    ["i(<source>)"] for branch-current rows.  Diagnostics only. *)

val branch_id : compiled -> string -> int
(** Unknown index of a voltage source's or inductor's branch
    current. *)

val voltage : compiled -> float array -> string -> float
(** Node voltage in a solution vector (0 for ground). *)

val vsource_current : compiled -> float array -> string -> float
(** Current through a voltage source (positive into its + terminal). *)

type cap_companion = {
  geq : float;  (** companion conductance *)
  ieq : float;  (** companion current, n1 -> n2 *)
}

type cap_policy =
  | Open_circuit  (** DC analysis: capacitors carry no current *)
  | Companions of cap_companion array
      (** transient: one companion per capacitor in netlist order *)

type ind_companion = {
  zeq : float;  (** impedance term of the branch equation *)
  veq : float;  (** right-hand side of the branch equation *)
}

type ind_policy =
  | Short_circuit  (** DC analysis: inductors are shorts *)
  | Ind_companions of ind_companion array
      (** transient: one companion per inductor in netlist order *)

val inductors : compiled -> (int * int * int * float) array
(** Inductors in netlist order as [(n1, n2, branch_index, henries)]. *)

val capacitors : compiled -> (int * int * float) array
(** Capacitances in netlist order as [(node1, node2, farads)] with
    compiled indices: explicit capacitors plus the intrinsic
    gate-source/gate-drain capacitances of CNFETs with positive tube
    length. *)

val newton_result :
  ?gmin:float ->
  ?tol:float ->
  ?max_iter:int ->
  ?max_step:float ->
  ?damping:bool ->
  ?ind:ind_policy ->
  compiled ->
  eval_wave:(string -> Waveform.t -> float) ->
  cap:cap_policy ->
  float array ->
  (float array * Diag.newton_report, Diag.newton_report) result
(** Newton iteration from a starting guess, reporting a structured
    outcome instead of raising.  [eval_wave] is called with each
    independent source's element name and waveform — the name lets a
    sweep override one source without recompiling.  Voltage updates are
    clamped to [max_step] volts per iteration; with [damping] (default
    off) an Armijo-style backtracking line search additionally shortens
    steps that fail to reduce the residual norm, at the price of extra
    assembles per iteration.  [Error] carries the failure report
    (singular matrix, exhausted iterations, or a non-finite value) —
    see {!Diag.reason}.  A singular matrix names the unknown with no
    pivot ({!unknown_name}) in both the reason and [worst_node].
    Honours any installed {!Fault} spec. *)

val newton :
  ?gmin:float ->
  ?tol:float ->
  ?max_iter:int ->
  ?max_step:float ->
  ?damping:bool ->
  ?ind:ind_policy ->
  compiled ->
  eval_wave:(string -> Waveform.t -> float) ->
  cap:cap_policy ->
  float array ->
  float array
(** {!newton_result} as a raising shim: returns the solution and raises
    {!No_convergence} with the failure report otherwise. *)

(** {2 Assembly inspection}

    For tests of the numeric refill: a second workspace, one refill,
    and what that refill leaves behind. *)

val clone : compiled -> compiled
(** A second numeric workspace over the same symbolic compilation, as a
    compile-cache hit returns: pattern, node tables and device models
    shared; solver values, right-hand side, stats and CNFET table
    columns fresh, so its first refill evaluates every CNFET. *)

val refill_dc : tol:float -> compiled -> float array -> unit
(** One refill at [x] as {!newton_result} at this [tol] and its default
    [gmin] performs it, with capacitors open, inductors shorted and
    every source at its DC value. *)

val cnfet_row : compiled -> int -> float array
(** [[| vgs; vds; i0; gm; gds |]] of CNFET table row [k] (netlist
    order): the bias of the row's last evaluation and that evaluation's
    outputs. *)

val system : compiled -> float array
(** A copy of the assembled system: the matrix's stored values, then
    the right-hand side. *)
