(* DC analyses: operating point and swept operating points. *)

module Obs = Cnt_obs.Obs
module Progress = Cnt_obs.Progress

exception Analysis_error of string

let c_sweep_points = Obs.counter "dc.sweep_points"
let c_source_stepping = Obs.counter "dc.source_stepping_rescues"

type op_result = {
  compiled : Mna.compiled;
  solution : float array;
}

let dc_wave _name w = Waveform.dc_value w

(* Case-insensitive ASCII name equality without allocating. *)
let names_equal a b =
  String.length a = String.length b
  &&
  let n = String.length a in
  let rec go i =
    i >= n || (Char.lowercase_ascii a.[i] = Char.lowercase_ascii b.[i] && go (i + 1))
  in
  go 0

(* Operating point through the {!Homotopy} convergence ladder: plain
   Newton first (the unchanged fast path), then — under the default
   policy — damped Newton, gmin stepping, source stepping and combined
   gmin+source continuation.  A full-ladder failure raises
   {!Diag.Convergence_failure} carrying the strategy trail. *)
let solve_op ?(gmin = 1e-12) ?tol ?max_iter ?policy ?(analysis = "op")
    ?sweep_var ?sweep_point compiled ~eval_wave =
  let x0 = Array.make (Mna.size compiled) 0.0 in
  Fault.set_point sweep_point;
  match
    Homotopy.solve ~gmin ?tol ?max_iter ?policy compiled ~eval_wave
      ~cap:Mna.Open_circuit x0
  with
  | Ok (x, trail) ->
      if
        List.exists
          (fun (a : Diag.attempt) -> a.rung = Diag.Source_stepping)
          trail
      then Obs.incr c_source_stepping;
      x
  | Error trail ->
      raise
        (Diag.Convergence_failure
           (Diag.of_trail ~analysis ?sweep_var ?sweep_point trail))

let operating_point ?(gmin = 1e-12) ?tol ?max_iter ?policy ?(analysis = "op")
    circuit =
  Obs.span "dc.operating_point" @@ fun () ->
  let compiled = Mna.compile circuit in
  {
    compiled;
    solution =
      solve_op ~gmin ?tol ?max_iter ?policy ~analysis compiled
        ~eval_wave:dc_wave;
  }

(* Operating point of an already-compiled circuit, sharing its solver
   workspace and telemetry (used by transient to seed t = 0). *)
let solve_compiled ?(gmin = 1e-12) ?tol ?max_iter ?policy ?analysis compiled =
  solve_op ~gmin ?tol ?max_iter ?policy ?analysis compiled ~eval_wave:dc_wave

let voltage r name = Mna.voltage r.compiled r.solution name
let current r vname = Mna.vsource_current r.compiled r.solution vname

(* Replace the DC value of one named voltage source. *)
let set_vsource circuit name volts =
  let found = ref false in
  let elements =
    List.map
      (fun e ->
        match e with
        | Circuit.Vsource { name = vn; npos; nneg; ac; _ } when names_equal vn name ->
            found := true;
            Circuit.vsource ~ac vn npos nneg (Waveform.dc volts)
        | e -> e)
      (Circuit.elements circuit)
  in
  if not !found then
    raise (Analysis_error (Printf.sprintf "dc sweep: no voltage source named %s" name));
  Circuit.create elements

type sweep_result = {
  compiled : Mna.compiled; (* shared by every point *)
  sweep_values : float array;
  points : op_result array;
}

(* Number of sweep points for start/step/stop.  When step divides the
   span (within rounding noise) the stop value is included; otherwise
   the sweep truncates to the last point at or below stop rather than
   overshooting it. *)
let sweep_point_count ~start ~stop ~step =
  if not (Float.is_finite start && Float.is_finite stop && Float.is_finite step)
  then invalid_arg "Dc.sweep: start, stop and step must be finite";
  if step <= 0.0 then invalid_arg "Dc.sweep: step must be positive";
  if stop < start then invalid_arg "Dc.sweep: stop must not precede start";
  let ratio = (stop -. start) /. step in
  let nearest = Float.round ratio in
  if Float.abs (ratio -. nearest) <= 1e-9 *. Float.max 1.0 (Float.abs ratio) then
    int_of_float nearest + 1
  else int_of_float (Float.floor ratio) + 1

(* Sweep the DC value of a voltage source as one continuation, the way
   SPICE3's DC transfer curve runs.  The circuit is compiled once; the
   swept source is overridden by name inside [eval_wave], so the matrix
   structure and slot program are shared by every point.  Point 0
   solves cold through the ladder (with the usual source-stepping
   fallback); every later point warm-starts plain Newton from its
   predecessor's solution and climbs the ladder, cold, only when that
   fails. *)
let sweep ?(gmin = 1e-12) ?tol ?max_iter ?policy circuit ~source ~start ~stop
    ~step =
  Obs.span "dc.sweep" @@ fun () ->
  let n = sweep_point_count ~start ~stop ~step in
  Obs.incr ~by:n c_sweep_points;
  let source_exists =
    List.exists
      (function
        | Circuit.Vsource { name; _ } -> names_equal name source
        | _ -> false)
      (Circuit.elements circuit)
  in
  if not source_exists then
    raise
      (Analysis_error (Printf.sprintf "dc sweep: no voltage source named %s" source));
  let compiled = Mna.compile circuit in
  let values = Array.init n (fun i -> start +. (float_of_int i *. step)) in
  let swept = ref start in
  let eval_wave name w =
    if names_equal name source then !swept else Waveform.dc_value w
  in
  let ladder () =
    solve_op ~gmin ?tol ?max_iter ?policy ~analysis:"dc" ~sweep_var:source
      ~sweep_point:!swept compiled ~eval_wave
  in
  let solutions = Array.make n [||] in
  for i = 0 to n - 1 do
    swept := values.(i);
    Fault.set_point (Some !swept);
    solutions.(i) <-
      (if i = 0 then ladder ()
       else
         try
           Mna.newton ~gmin ?tol ?max_iter compiled ~eval_wave
             ~cap:Mna.Open_circuit
             (Array.copy solutions.(i - 1))
         with Mna.No_convergence _ -> ladder ());
    if Progress.on () then
      Progress.emit (Progress.Sweep_point { k = i + 1; n; value = values.(i) })
  done;
  Fault.set_point None;
  let points = Array.map (fun solution -> { compiled; solution }) solutions in
  { compiled; sweep_values = values; points }

let sweep_voltage r name = Array.map (fun p -> voltage p name) r.points
let stats (r : op_result) = Mna.stats r.compiled
let sweep_stats (r : sweep_result) = Mna.stats r.compiled
