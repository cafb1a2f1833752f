(* The convergence ladder.

   One entry point, [solve], tries progressively heavier strategies to
   bring a nonlinear system to convergence:

     1. plain Newton           — the fast path, identical to the solve
                                 the analyses always ran
     2. damped Newton          — Armijo line search on the step
     3. gmin stepping          — solve with a large gmin and ramp it
                                 geometrically down to the target
     4. source stepping        — ramp all independent sources 0 -> 1,
                                 warm-starting each solve from the last
                                 (the rescue [Dc.solve_op] used to
                                 hardwire)
     5. gmin + source          — both continuations at once, for decks
                                 neither rescues alone

   Every rung that runs leaves a {!Diag.attempt} in the strategy trail,
   successful or not, so a failure report shows exactly what was tried.
   Each rung restarts from the caller's initial guess: the iterate a
   failed rung leaves behind may be garbage (rail-to-rail oscillation,
   NaN) and is worth less than the cold start.

   Continuation rungs deform the problem, not the answer: intermediate
   solutions are only warm starts, and the final solve of every rung is
   the undeformed system at the target gmin and full source strength,
   so a success from any rung satisfies the same equations as a plain
   Newton success. *)

module Obs = Cnt_obs.Obs

let c_rescues = Obs.counter "homotopy.rescues"
let c_failures = Obs.counter "homotopy.ladder_failures"

let c_rung_attempts =
  (* index-aligned with Diag.all_rungs *)
  List.map
    (fun r -> Obs.counter (Printf.sprintf "homotopy.rung.%s" (Diag.rung_name r)))
    Diag.all_rungs

type policy = {
  damped : bool;
  gmin_stepping : bool;
  source_stepping : bool;
  gmin_source : bool;
  gmin_start : float;  (* initial gmin of the ramp rungs *)
  gmin_steps : int;  (* geometric ramp points, >= 2 *)
  source_steps : int;  (* source ramp points, >= 1 *)
}

let default =
  {
    damped = true;
    gmin_stepping = true;
    source_stepping = true;
    gmin_source = true;
    gmin_start = 1e-3;
    gmin_steps = 10;
    source_steps = 20;
  }

let plain_only =
  {
    damped = false;
    gmin_stepping = false;
    source_stepping = false;
    gmin_source = false;
    gmin_start = 1e-3;
    gmin_steps = 10;
    source_steps = 20;
  }

(* Re-exported so callers install faults without naming the Fault
   module: the ladder is the API surface of the robustness subsystem. *)
let with_faults = Fault.with_faults

(* ------------------------------------------------------------------ *)
(* Rung bodies                                                         *)
(* ------------------------------------------------------------------ *)

(* Outcome of one rung: solves attempted, iterations summed over them,
   and either the solution with its last report or the failing one. *)
type rung_outcome = {
  o_steps : int;
  o_iters : int;
  o_result : (float array * Diag.newton_report, Diag.newton_report) result;
}

(* Run a warm-started continuation: solve the system at each
   [(scale, gmin)] deformation point in turn, carrying the solution
   forward as the next starting guess.  [damping] applies to every
   solve of the chain. *)
let continuation ~points ~damping ~tol ~max_iter ~max_step ~ind c ~eval_wave
    ~cap x0 =
  let scale_ref = ref 1.0 in
  let scaled_wave name w = !scale_ref *. eval_wave name w in
  let rec go x steps iters = function
    | [] -> assert false
    | (scale, gmin) :: rest -> (
        scale_ref := scale;
        match
          Mna.newton_result ~gmin ~tol ~max_iter ~max_step ~damping ~ind c
            ~eval_wave:scaled_wave ~cap x
        with
        | Ok (x', report) ->
            let steps = steps + 1 and iters = iters + report.iterations in
            if rest = [] then
              { o_steps = steps; o_iters = iters; o_result = Ok (x', report) }
            else go x' steps iters rest
        | Error report ->
            {
              o_steps = steps + 1;
              o_iters = iters + report.iterations;
              o_result = Error report;
            })
  in
  go (Array.copy x0) 0 0 points

(* Geometric gmin ramp from [start] down to [target], inclusive. *)
let gmin_ramp ~start ~target ~steps =
  if start <= target then [ target ]
  else begin
    let steps = max 2 steps in
    let ratio = target /. start in
    List.init steps (fun k ->
        if k = steps - 1 then target
        else start *. Float.pow ratio (float_of_int k /. float_of_int (steps - 1)))
  end

let rung_body rung policy ~gmin ~tol ~max_iter ~max_step ~ind c ~eval_wave ~cap
    x0 =
  match rung with
  | Diag.Plain_newton | Diag.Damped_newton ->
      let damping = rung = Diag.Damped_newton in
      let result =
        Mna.newton_result ~gmin ~tol ~max_iter ~max_step ~damping ~ind c
          ~eval_wave ~cap x0
      in
      let iters =
        match result with Ok (_, r) -> r.iterations | Error r -> r.iterations
      in
      { o_steps = 1; o_iters = iters; o_result = result }
  | Diag.Gmin_stepping ->
      let points =
        List.map
          (fun g -> (1.0, g))
          (gmin_ramp ~start:policy.gmin_start ~target:gmin
             ~steps:policy.gmin_steps)
      in
      continuation ~points ~damping:true ~tol ~max_iter ~max_step ~ind c
        ~eval_wave ~cap x0
  | Diag.Source_stepping ->
      (* the chain [Dc.solve_op] used to run: undamped solves at
         source fractions 1/n .. n/n, each warm-starting the next *)
      let n = max 1 policy.source_steps in
      let points =
        List.init n (fun k -> (float_of_int (k + 1) /. float_of_int n, gmin))
      in
      continuation ~points ~damping:false ~tol ~max_iter ~max_step ~ind c
        ~eval_wave ~cap x0
  | Diag.Gmin_source ->
      let n = max 2 (max policy.gmin_steps policy.source_steps) in
      let gmins =
        gmin_ramp ~start:policy.gmin_start ~target:gmin ~steps:n
      in
      let points =
        List.mapi
          (fun k g -> (float_of_int (k + 1) /. float_of_int (List.length gmins), g))
          gmins
      in
      continuation ~points ~damping:true ~tol ~max_iter ~max_step ~ind c
        ~eval_wave ~cap x0

(* ------------------------------------------------------------------ *)
(* The ladder                                                          *)
(* ------------------------------------------------------------------ *)

let enabled_rungs policy =
  List.filter
    (fun r ->
      match r with
      | Diag.Plain_newton -> true
      | Diag.Damped_newton -> policy.damped
      | Diag.Gmin_stepping -> policy.gmin_stepping
      | Diag.Source_stepping -> policy.source_stepping
      | Diag.Gmin_source -> policy.gmin_source)
    Diag.all_rungs

let rung_counter rung =
  let rec go rs cs =
    match (rs, cs) with
    | r :: _, c :: _ when r = rung -> c
    | _ :: rs, _ :: cs -> go rs cs
    | _ -> assert false
  in
  go Diag.all_rungs c_rung_attempts

let solve ?(gmin = 1e-12) ?(tol = 1e-9) ?(max_iter = 200) ?(max_step = 0.5)
    ?(policy = default) ?(ind = Mna.Short_circuit) c ~eval_wave ~cap x0 =
  let rec attempt trail = function
    | [] ->
        Obs.incr c_failures;
        Error (List.rev trail)
    | rung :: rest -> (
        Fault.set_rung rung;
        Obs.incr (rung_counter rung);
        if rung <> Diag.Plain_newton then begin
          Obs.incr c_rescues;
          (* A milestone, not a tick: escalation is a property of the
             deck and the policy, so the stream is identical on every
             run.  The sweep point comes from the fault context the
             analyses already maintain. *)
          if Cnt_obs.Progress.on () then
            Cnt_obs.Progress.emit
              (Cnt_obs.Progress.Rung_escalation
                 {
                   rung = Diag.rung_name rung;
                   sweep_point = Fault.current_point ();
                 })
        end;
        let fb0 = Cnt_core.Scv_solver.fallback_events () in
        let outcome =
          rung_body rung policy ~gmin ~tol ~max_iter ~max_step ~ind c
            ~eval_wave ~cap x0
        in
        let fb = Cnt_core.Scv_solver.fallback_events () - fb0 in
        let mk (report : Diag.newton_report) succeeded : Diag.attempt =
          {
            rung;
            succeeded;
            steps = outcome.o_steps;
            iterations = outcome.o_iters;
            residual = report.residual;
            worst_node = report.worst_node;
            failure = report.reason;
            scv_fallbacks = fb;
          }
        in
        match outcome.o_result with
        | Ok (x, report) ->
            Fault.set_rung Diag.Plain_newton;
            Ok (x, List.rev (mk report true :: trail))
        | Error report -> attempt (mk report false :: trail) rest)
  in
  let result = attempt [] (enabled_rungs policy) in
  Fault.set_rung Diag.Plain_newton;
  result
