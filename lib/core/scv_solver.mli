(** Closed-form solver of the self-consistent voltage equation for
    piecewise-polynomial charge approximations (paper sections IV-V).

    Replaces the Newton-Raphson + numerical-integration inner loop of
    the reference model with breakpoint scanning plus closed-form
    polynomial roots of degree at most 3. *)

type t

type stats = {
  vsc : float;  (** the solved self-consistent voltage, V *)
  interval : float * float;  (** bracketing breakpoint interval *)
  degree : int;  (** degree of the polynomial solved on it *)
  used_fallback : bool;  (** whether bisection rescued a degenerate case *)
}

val create : qs:Piecewise.t -> c_sigma:float -> t
(** Build a solver from the fitted source charge curve [Q_S(V_SC)]
    (C/m) and the total terminal capacitance (F/m). *)

val qs : t -> Piecewise.t
val c_sigma : t -> float

val merged_breakpoints : t -> vds:float -> float array
(** Sorted union of the source breakpoints and the drain breakpoints
    (source breakpoints shifted by [-vds]). *)

val residual : t -> qt:float -> vds:float -> float -> float
(** [F(V) = C_Sigma V + Q_t - Q_S(V) - Q_D(V)]; strictly increasing in
    [V]. *)

val residual_poly : t -> qt:float -> vds:float -> float -> Cnt_numerics.Polynomial.t
(** The polynomial equal to [F] on the breakpoint interval containing
    the given point. *)

val real_roots_into : float array -> float array -> int
(** [real_roots_into p buf] writes the real roots of [p] (coefficients
    lowest-degree first, no trailing zero, degree at most 3) into
    [buf] (length at least 3), ascending, and returns how many: the
    closed-form linear, quadratic and Cardano formulas, each root
    polished by one Newton step.  Raises [Invalid_argument] above
    degree 3.  Exposed for tests; the solver calls it on every
    interval it solves. *)

val solve_stats : t -> qt:float -> vds:float -> stats
(** Solve [F(V) = 0] in closed form, with diagnostics. *)

val solve : t -> qt:float -> vds:float -> float
(** The self-consistent voltage for terminal charge [qt] (C/m) and
    drain bias [vds] (V). *)

val qs_slope : t -> float -> float
(** [dQ_S/dV] (F/m) at a point, from the piece containing it (a
    boundary point belongs to the piece on its left, as in
    {!Piecewise.piece_index}).  The fitted curves are C{^1}, so at a
    boundary the side chosen moves the slope only by the fit's
    continuity defect. *)

(** {1 Batched evaluation plans}

    A plan hoists everything in the closed-form solve that depends only
    on [(solver, vds)] — the merged breakpoints, the charge-curve
    values at them and every interval's piece polynomials — so a whole
    bias grid at one drain voltage pays for that work once.  A plan
    solve replays the scalar solve's floating-point program on the
    precomputed parts and is therefore {e bitwise-equal} to {!solve} at
    every [(qt, vds)] (pinned by [test/test_property.ml]).  It ticks the
    same telemetry counters as the scalar path, so profiles keep their
    shape whichever entry point a workload uses.

    Once a plan exists, retargeting and solving allocate nothing when
    driven through its {!io} cells: floats reach the plan and leave it
    only through those unboxed fields, never as boxed call arguments or
    results. *)

type plan

type io = {
  mutable vds : float;  (** drain bias {!solve_io} retargets the plan at *)
  mutable qt : float;  (** terminal charge {!solve_io} solves for, C/m *)
  mutable vsc : float;  (** the solved self-consistent voltage, V *)
  mutable dqs : float;  (** [Q_S'(vsc)], F/m, written by {!slopes_io} *)
  mutable dqd : float;  (** [Q_S'(vsc + vds)], F/m, written by {!slopes_io} *)
}
(** A plan's own float cells: a flat float record, so reading and
    writing its fields from another module neither boxes nor calls. *)

val plan : t -> vds:float -> plan
val io : plan -> io
(** The plan's cells (the same record for the plan's lifetime). *)

val replan : plan -> vds:float -> unit
(** Retarget a plan at a new drain bias, reusing its storage: after
    [replan p ~vds], [p] is indistinguishable from [plan t ~vds] (the
    worst-case merged-breakpoint capacity is allocated up front).
    Retargeting at the bias the plan already holds keeps its warm
    memos, which is bitwise-identical to rebuilding them.  Sets
    [(io p).vds]. *)

val solve_plan : plan -> qt:float -> float
(** [solve_plan (plan t ~vds) ~qt] = [solve t ~qt ~vds], bitwise. *)

val solve_io : plan -> unit
(** [replan] at [(io p).vds], then solve at [(io p).qt] into
    [(io p).vsc]: [solve_plan] with every float passed through the
    cells. *)

val slopes_io : plan -> unit
(** {!qs_slope} at [(io p).vsc] into [dqs] and at
    [(io p).vsc +. (io p).vds] into [dqd]. *)

val fallback_events : unit -> int
(** Process-wide count of bisection rescues since program start,
    monotonic and always on (independent of [Cnt_obs] being enabled).
    Circuit-level convergence diagnostics snapshot it around a solve
    attempt to report degenerate device evaluations in their strategy
    trail. *)
