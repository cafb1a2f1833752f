(* CNT CMOS logic building blocks: element-list generators for common
   gates, ready to compose into netlists.  Every cell shares one fitted
   n-type model and its p-type mirror, so a whole netlist costs one
   charge fit.

   Cells are pure element lists with caller-supplied node names;
   instance names are derived from a caller-supplied prefix so multiple
   instances can coexist. *)

open Cnt_core
open Cnt_spice

type family = {
  n_model : Cnt_model.t;
  p_model : Cnt_model.t;
  vdd : float; (* supply voltage, V *)
  length : float; (* tube length for intrinsic capacitances, m *)
  load : float; (* explicit output load per cell, F *)
}

let family ?(vdd = 0.6) ?(length = 0.0) ?(load = 0.0) ?spec ?device () =
  let device = Option.value device ~default:Cnt_physics.Device.default in
  let make polarity = Cnt_model.make ~polarity ?spec device in
  {
    n_model = make Cnt_model.N_type;
    p_model = make Cnt_model.P_type;
    vdd;
    length;
    load;
  }

(* Optional explicit load capacitor on a cell output. *)
let load_elements f ~prefix ~output =
  if f.load > 0.0 then
    [ Circuit.capacitor (prefix ^ "_cl") output "0" f.load ]
  else []

let nfet f name ~drain ~gate ~source =
  Circuit.cnfet ~length:f.length name ~drain ~gate ~source f.n_model

let pfet f name ~drain ~gate ~source =
  Circuit.cnfet ~length:f.length name ~drain ~gate ~source f.p_model

(* Static CMOS inverter. *)
let inverter f ~prefix ~input ~output ~vdd_node =
  [
    nfet f (prefix ^ "_mn") ~drain:output ~gate:input ~source:"0";
    pfet f (prefix ^ "_mp") ~drain:output ~gate:input ~source:vdd_node;
  ]
  @ load_elements f ~prefix ~output

(* Two-input NAND: series n-pull-down, parallel p-pull-up. *)
let nand2 f ~prefix ~input_a ~input_b ~output ~vdd_node =
  let mid = prefix ^ "_mid" in
  [
    nfet f (prefix ^ "_mna") ~drain:output ~gate:input_a ~source:mid;
    nfet f (prefix ^ "_mnb") ~drain:mid ~gate:input_b ~source:"0";
    pfet f (prefix ^ "_mpa") ~drain:output ~gate:input_a ~source:vdd_node;
    pfet f (prefix ^ "_mpb") ~drain:output ~gate:input_b ~source:vdd_node;
  ]
  @ load_elements f ~prefix ~output

(* Two-input NOR: parallel n-pull-down, series p-pull-up. *)
let nor2 f ~prefix ~input_a ~input_b ~output ~vdd_node =
  let mid = prefix ^ "_mid" in
  [
    nfet f (prefix ^ "_mna") ~drain:output ~gate:input_a ~source:"0";
    nfet f (prefix ^ "_mnb") ~drain:output ~gate:input_b ~source:"0";
    pfet f (prefix ^ "_mpa") ~drain:mid ~gate:input_a ~source:vdd_node;
    pfet f (prefix ^ "_mpb") ~drain:output ~gate:input_b ~source:mid;
  ]
  @ load_elements f ~prefix ~output

(* Chain of [stages] inverters from [input]; returns the elements and
   the output node.  Internal nodes are "<prefix>_n<i>". *)
let inverter_chain f ~prefix ~input ~stages ~vdd_node =
  if stages < 1 then invalid_arg "Stdcells.inverter_chain: stages >= 1";
  let node i = Printf.sprintf "%s_n%d" prefix i in
  let elements =
    List.concat
      (List.init stages (fun i ->
           let inp = if i = 0 then input else node i in
           inverter f
             ~prefix:(Printf.sprintf "%s_inv%d" prefix i)
             ~input:inp ~output:(node (i + 1)) ~vdd_node))
  in
  (elements, node stages)

(* Ring oscillator of [stages] (odd) inverters; returns the closed-loop
   elements plus a kick-start current source on the first node. *)
let ring_oscillator f ~prefix ~stages ~vdd_node =
  if stages < 3 || stages mod 2 = 0 then
    invalid_arg "Stdcells.ring_oscillator: need an odd stage count >= 3";
  let node i = Printf.sprintf "%s_n%d" prefix (i mod stages) in
  let elements =
    List.concat
      (List.init stages (fun i ->
           inverter f
             ~prefix:(Printf.sprintf "%s_inv%d" prefix i)
             ~input:(node i) ~output:(node (i + 1)) ~vdd_node))
  in
  let kick =
    Circuit.isource (prefix ^ "_ikick") (node 0) "0"
      (Waveform.pulse ~v1:0.0 ~v2:2e-6 ~rise:1e-12 ~fall:1e-12 ~width:0.3e-9
         ~period:1.0 ())
  in
  (kick :: elements, node 0)

(* A complete test bench: supply + the given stimulus sources + cells. *)
let bench f ~stimuli ~cells =
  Circuit.create ((Circuit.vdc "vdd" "vdd" "0" f.vdd :: stimuli) @ cells)

(* Digital interpretation of a node voltage. *)
let logic_level f v =
  if v > 0.75 *. f.vdd then Some true
  else if v < 0.25 *. f.vdd then Some false
  else None
