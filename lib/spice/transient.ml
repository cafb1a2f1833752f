(* Transient analysis by implicit integration of the capacitor
   currents: backward Euler or trapezoidal companion models, a Newton
   solve per time step, and step halving on convergence failure. *)

module Obs = Cnt_obs.Obs
module Progress = Cnt_obs.Progress

exception Analysis_error of string

let c_steps_accepted = Obs.counter "tran.steps_accepted"
let c_steps_rejected = Obs.counter "tran.steps_rejected"
let c_ladder_rescues = Obs.counter "tran.ladder_rescues"
let h_step_size = Obs.histogram "tran.step_size"

type method_ =
  | Backward_euler
  | Trapezoidal

type result = {
  compiled : Mna.compiled;
  times : float array;
  solutions : float array array; (* one solution vector per time point *)
}

(* Companion stamps for one step of size h.

   Backward Euler:  i_n+1 = C/h (v_n+1 - v_n)
     -> geq = C/h, ieq = -C/h * v_n
   Trapezoidal:     i_n+1 = 2C/h (v_n+1 - v_n) - i_n
     -> geq = 2C/h, ieq = -(2C/h * v_n + i_n)

   ieq is the companion source flowing n1 -> n2 so that the total
   branch current is geq * v + ieq. *)
let companions method_ caps h v_prev i_prev =
  Array.mapi
    (fun k (a, b, c) ->
      let vab =
        (if a < 0 then 0.0 else v_prev.(a)) -. if b < 0 then 0.0 else v_prev.(b)
      in
      match method_ with
      | Backward_euler ->
          { Mna.geq = c /. h; ieq = -.(c /. h *. vab) }
      | Trapezoidal ->
          let g = 2.0 *. c /. h in
          { Mna.geq = g; ieq = -.((g *. vab) +. i_prev.(k)) })
    caps

(* Inductor companions for one step of size h.

   Backward Euler:  v_n+1 = (L/h)(i_n+1 - i_n)
     -> zeq = L/h,  veq = -(L/h) i_n
   Trapezoidal:     v_n+1 + v_n = (2L/h)(i_n+1 - i_n)
     -> zeq = 2L/h, veq = -v_n - (2L/h) i_n

   where the branch equation is  v1 - v2 - zeq*i = veq. *)
let ind_companions method_ inds h x_prev =
  Array.map
    (fun (a, b, row, henries) ->
      let v_prev =
        (if a < 0 then 0.0 else x_prev.(a)) -. if b < 0 then 0.0 else x_prev.(b)
      in
      let i_prev = x_prev.(row) in
      match method_ with
      | Backward_euler ->
          let z = henries /. h in
          { Mna.zeq = z; veq = -.(z *. i_prev) }
      | Trapezoidal ->
          let z = 2.0 *. henries /. h in
          { Mna.zeq = z; veq = -.v_prev -. (z *. i_prev) })
    inds

(* Capacitor branch currents implied by a solution and its companions. *)
let branch_currents caps comps x =
  Array.mapi
    (fun k (a, b, _) ->
      let vab = (if a < 0 then 0.0 else x.(a)) -. if b < 0 then 0.0 else x.(b) in
      (comps.(k).Mna.geq *. vab) +. comps.(k).Mna.ieq)
    caps

let run ?(method_ = Trapezoidal) ?(gmin = 1e-12) ?tol ?(max_newton = 100)
    ?policy ?initial_condition circuit ~tstep ~tstop =
  Obs.span "tran.run" @@ fun () ->
  if tstep <= 0.0 || tstop <= 0.0 || tstep > tstop then
    raise (Analysis_error "transient: need 0 < tstep <= tstop");
  let compiled = Mna.compile circuit in
  let caps = Mna.capacitors compiled in
  let inds = Mna.inductors compiled in
  (* start from the DC operating point at t = 0 unless overridden; the
     DC solve shares this circuit's solver workspace and telemetry *)
  let x0 =
    match initial_condition with
    | Some x ->
        if Array.length x <> Mna.size compiled then
          raise (Analysis_error "transient: initial condition size mismatch");
        Array.copy x
    | None -> Dc.solve_compiled ~gmin ?tol ?policy ~analysis:"tran" compiled
  in
  let times = ref [ 0.0 ] and solutions = ref [ x0 ] in
  let i_prev = ref (Array.make (Array.length caps) 0.0) in
  let x_prev = ref x0 in
  let t = ref 0.0 in
  let h = ref tstep in
  let h_min = tstep /. 1024.0 in
  let n_accepted = ref 0 and n_rejected = ref 0 in
  while !t < tstop -. 1e-18 do
    let h_now = Float.min !h (tstop -. !t) in
    let t_next = !t +. h_now in
    let comps = companions method_ caps h_now !x_prev !i_prev in
    let icomps = ind_companions method_ inds h_now !x_prev in
    let eval_wave _name w = Waveform.eval w t_next in
    let accept x =
      Obs.incr c_steps_accepted;
      Obs.observe h_step_size h_now;
      i_prev := branch_currents caps comps x;
      x_prev := x;
      t := t_next;
      times := t_next :: !times;
      solutions := x :: !solutions;
      if Progress.on () then begin
        incr n_accepted;
        Progress.emit
          (Progress.Tran_step
             {
               t = t_next;
               t_stop = tstop;
               accepted = !n_accepted;
               rejected = !n_rejected;
             })
      end;
      (* recover the step size after successful solves *)
      if !h < tstep then h := Float.min tstep (!h *. 2.0)
    in
    Fault.set_point (Some t_next);
    match
      Mna.newton ~gmin ?tol ~max_iter:max_newton compiled ~eval_wave
        ~cap:(Mna.Companions comps)
        ~ind:(Mna.Ind_companions icomps) (Array.copy !x_prev)
    with
    | x -> accept x
    | exception Mna.No_convergence _ ->
        Obs.incr c_steps_rejected;
        if Progress.on () then incr n_rejected;
        if h_now <= h_min then begin
          (* step halving is out of road: climb the full ladder at the
             minimum step before giving up.  Continuation rungs only
             deform the solve toward the true companion system, so an
             accepted rescue satisfies the same step equations. *)
          Obs.incr c_ladder_rescues;
          match
            Homotopy.solve ~gmin ?tol ~max_iter:max_newton ?policy compiled
              ~eval_wave
              ~cap:(Mna.Companions comps)
              ~ind:(Mna.Ind_companions icomps) (Array.copy !x_prev)
          with
          | Ok (x, _trail) -> accept x
          | Error trail ->
              Fault.set_point None;
              raise
                (Diag.Convergence_failure
                   (Diag.of_trail ~analysis:"tran" ~sweep_var:"time"
                      ~sweep_point:t_next trail))
        end
        else h := h_now /. 2.0
  done;
  Fault.set_point None;
  {
    compiled;
    times = Array.of_list (List.rev !times);
    solutions = Array.of_list (List.rev !solutions);
  }

let stats r = Mna.stats r.compiled

let voltage r name =
  let id = Mna.node_id r.compiled name in
  Array.map (fun x -> if id < 0 then 0.0 else x.(id)) r.solutions

let vsource_current r vname =
  let id = Mna.branch_id r.compiled vname in
  Array.map (fun x -> x.(id)) r.solutions

(* Time of the k-th crossing of [level] on a node, by linear
   interpolation; [rising] selects the edge direction.  Useful for
   oscillator-period and delay measurements. *)
let crossing_times ?(rising = true) r name level =
  let v = voltage r name in
  let out = ref [] in
  for i = 0 to Array.length v - 2 do
    let a = v.(i) and b = v.(i + 1) in
    let crosses = if rising then a < level && b >= level else a > level && b <= level in
    if crosses then begin
      let frac = (level -. a) /. (b -. a) in
      out := (r.times.(i) +. (frac *. (r.times.(i + 1) -. r.times.(i)))) :: !out
    end
  done;
  Array.of_list (List.rev !out)
