(* Logic-gate characterisation: propagation delays, transition times
   and switching energy of a cell under a pulse stimulus — the
   "practical logic circuit structures" testing the paper names as the
   purpose of a fast circuit-level model.

   The cell under test is driven with one full input pulse; delays are
   measured between the 50 % crossings of input and output, transition
   times between the 10 % and 90 % levels, and the switching energy by
   integrating the supply current over each output transition. *)

exception Characterisation_error of string

type timing = {
  tphl : float; (* input rise -> output fall delay, s *)
  tplh : float; (* input fall -> output rise delay, s *)
  t_fall : float; (* output 90% -> 10% transition time, s *)
  t_rise : float; (* output 10% -> 90% transition time, s *)
  energy : float; (* supply energy drawn over the two transitions, J *)
  result : Transient.result;
}

(* First element of [xs] not below [t], linearly searched. *)
let first_after xs t =
  let rec go i =
    if i >= Array.length xs then None
    else if xs.(i) >= t then Some xs.(i)
    else go (i + 1)
  in
  go 0

(* Trapezoid integral of supply power vdd * (-i_vdd) over [t0, t1]. *)
let supply_energy result ~vdd_name ~vdd ~t0 ~t1 =
  let times = result.Transient.times in
  let current = Transient.vsource_current result vdd_name in
  let acc = ref 0.0 in
  for i = 0 to Array.length times - 2 do
    let ta = times.(i) and tb = times.(i + 1) in
    if tb > t0 && ta < t1 then begin
      (* power delivered by the supply: -i(vdd) * vdd (SPICE current
         convention: a sourcing supply has negative branch current) *)
      let pa = -.current.(i) *. vdd and pb = -.current.(i + 1) *. vdd in
      acc := !acc +. (0.5 *. (pa +. pb) *. (tb -. ta))
    end
  done;
  !acc

(* Characterise an inverting cell.

   [build] receives the input and output node names and returns the
   cell elements (e.g. a Stdcells.inverter application).  The stimulus
   is a full-swing pulse: rise at [t_edge], fall at [t_edge + width]. *)
let input_node = "char_in"
let output_node = "char_out"

let inverting_cell ?(vdd = 0.6) ?(t_edge = 1e-9) ?(width = 4e-9)
    ?(edge_time = 20e-12) ?(tstep = 5e-12) ?policy ~vdd_name ~build () =
  let input = input_node and output = output_node in
  let stimulus =
    Circuit.vsource "vchar_in" input "0"
      (Waveform.pulse ~delay:t_edge ~rise:edge_time ~fall:edge_time ~v1:0.0
         ~v2:vdd ~width ~period:(1000.0 *. width) ())
  in
  let circuit =
    Circuit.create
      (Circuit.vdc vdd_name vdd_name "0" vdd :: stimulus :: build ~input ~output)
  in
  let tstop = t_edge +. (2.0 *. width) in
  let result = Transient.run ?policy circuit ~tstep ~tstop in
  let half = 0.5 *. vdd in
  let lo = 0.1 *. vdd and hi = 0.9 *. vdd in
  let in_rise = Transient.crossing_times ~rising:true result input half in
  let in_fall = Transient.crossing_times ~rising:false result input half in
  let out_fall = Transient.crossing_times ~rising:false result output half in
  let out_rise = Transient.crossing_times ~rising:true result output half in
  let need name arr =
    if Array.length arr = 0 then
      raise
        (Characterisation_error
           (Printf.sprintf "no %s crossing found (cell not switching?)" name))
    else arr.(0)
  in
  let t_in_rise = need "input rise" in_rise in
  let t_in_fall = need "input fall" in_fall in
  let t_out_fall = need "output fall" out_fall in
  let t_out_rise = need "output rise" out_rise in
  (* transition times from the 10/90 crossings surrounding each edge *)
  let fall_90 = Transient.crossing_times ~rising:false result output (hi *. 1.0) in
  let fall_10 = Transient.crossing_times ~rising:false result output lo in
  let rise_10 = Transient.crossing_times ~rising:true result output lo in
  let rise_90 = Transient.crossing_times ~rising:true result output hi in
  let t_fall =
    match (first_after fall_90 t_in_rise, first_after fall_10 t_in_rise) with
    | Some a, Some b when b > a -> b -. a
    | _ -> nan
  in
  let t_rise =
    match (first_after rise_10 t_in_fall, first_after rise_90 t_in_fall) with
    | Some a, Some b when b > a -> b -. a
    | _ -> nan
  in
  let energy =
    supply_energy result ~vdd_name ~vdd ~t0:(t_edge /. 2.0)
      ~t1:(t_edge +. (1.8 *. width))
  in
  {
    tphl = t_out_fall -. t_in_rise;
    tplh = t_out_rise -. t_in_fall;
    t_fall;
    t_rise;
    energy;
    result;
  }

let to_string t =
  Printf.sprintf
    "tPHL = %.1f ps, tPLH = %.1f ps, t_fall = %.1f ps, t_rise = %.1f ps, \
     switching energy = %.3g J"
    (t.tphl *. 1e12) (t.tplh *. 1e12) (t.t_fall *. 1e12) (t.t_rise *. 1e12)
    t.energy
