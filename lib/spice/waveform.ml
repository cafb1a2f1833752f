(* Independent-source waveforms, SPICE-style. *)

type t =
  | Dc of float
  | Pulse of {
      v1 : float; (* initial level *)
      v2 : float; (* pulsed level *)
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }
  | Sin of {
      offset : float;
      amplitude : float;
      freq : float;
      delay : float;
      damping : float;
    }
  | Pwl of (float * float) list (* (time, value), ascending times *)

let dc v = Dc v

let pulse ?(delay = 0.0) ?(rise = 1e-12) ?(fall = 1e-12) ~v1 ~v2 ~width ~period () =
  if width < 0.0 then
    invalid_arg (Printf.sprintf "pulse width must not be negative (got %g)" width);
  if period <= 0.0 then
    invalid_arg (Printf.sprintf "pulse period must be positive (got %g)" period);
  Pulse { v1; v2; delay; rise = Float.max rise 1e-15; fall = Float.max fall 1e-15; width; period }

let sin_wave ?(delay = 0.0) ?(damping = 0.0) ~offset ~amplitude ~freq () =
  if freq <= 0.0 then
    invalid_arg (Printf.sprintf "sin frequency must be positive (got %g)" freq);
  Sin { offset; amplitude; freq; delay; damping }

let pwl points =
  let rec check = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
        if not (t1 <= t2) then
          invalid_arg
            (Printf.sprintf "pwl times must not decrease (%g follows %g)" t2 t1);
        check rest
    | _ -> ()
  in
  if points = [] then invalid_arg "pwl needs at least one (time, value) pair";
  check points;
  Pwl points

(* Value at time [t]; [Dc] sources are constant, time-varying sources
   evaluate their shape. *)
let eval w t =
  match w with
  | Dc v -> v
  | Pulse p ->
      if t < p.delay then p.v1
      else begin
        let tau = Float.rem (t -. p.delay) p.period in
        if tau < p.rise then p.v1 +. ((p.v2 -. p.v1) *. tau /. p.rise)
        else if tau < p.rise +. p.width then p.v2
        else if tau < p.rise +. p.width +. p.fall then
          p.v2 -. ((p.v2 -. p.v1) *. (tau -. p.rise -. p.width) /. p.fall)
        else p.v1
      end
  | Sin s ->
      if t < s.delay then s.offset
      else begin
        let tau = t -. s.delay in
        s.offset
        +. s.amplitude *. exp (-.s.damping *. tau)
           *. sin (2.0 *. Float.pi *. s.freq *. tau)
      end
  | Pwl points ->
      let rec interp = function
        | [] -> 0.0
        | [ (_, v) ] -> v
        | (t1, v1) :: ((t2, v2) :: _ as rest) ->
            if t <= t1 then v1
            else if t < t2 then v1 +. ((v2 -. v1) *. (t -. t1) /. (t2 -. t1))
            else interp rest
      in
      interp points

(* DC operating-point value (time-varying sources contribute their
   t = 0 value). *)
let dc_value w = eval w 0.0
