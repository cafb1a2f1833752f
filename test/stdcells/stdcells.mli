(** CNT CMOS logic building blocks: element-list generators for static
    gates, inverter chains and ring oscillators, sharing one fitted
    model pair per family. *)

open Cnt_core
open Cnt_spice

type family = {
  n_model : Cnt_model.t;
  p_model : Cnt_model.t;
  vdd : float;  (** supply voltage, V *)
  length : float;  (** tube length for intrinsic capacitances, m *)
  load : float;  (** explicit load per cell output, F *)
}

val family :
  ?vdd:float ->
  ?length:float ->
  ?load:float ->
  ?spec:Charge_fit.spec ->
  ?device:Cnt_physics.Device.t ->
  unit ->
  family
(** Fit one n-type model and its p-type mirror (defaults: paper Model 2
    on the default device, VDD = 0.6 V, no intrinsic caps, no load). *)

val nfet :
  family -> string -> drain:string -> gate:string -> source:string -> Circuit.element

val pfet :
  family -> string -> drain:string -> gate:string -> source:string -> Circuit.element

val inverter :
  family ->
  prefix:string ->
  input:string ->
  output:string ->
  vdd_node:string ->
  Circuit.element list

val nand2 :
  family ->
  prefix:string ->
  input_a:string ->
  input_b:string ->
  output:string ->
  vdd_node:string ->
  Circuit.element list

val nor2 :
  family ->
  prefix:string ->
  input_a:string ->
  input_b:string ->
  output:string ->
  vdd_node:string ->
  Circuit.element list

val inverter_chain :
  family ->
  prefix:string ->
  input:string ->
  stages:int ->
  vdd_node:string ->
  Circuit.element list * string
(** Returns the elements and the final output node. *)

val ring_oscillator :
  family ->
  prefix:string ->
  stages:int ->
  vdd_node:string ->
  Circuit.element list * string
(** Odd-stage ring with a kick-start current source; returns the
    elements and the observation node. *)

val bench :
  family -> stimuli:Circuit.element list -> cells:Circuit.element list -> Circuit.t
(** Supply + stimuli + cells as a validated circuit. *)

val logic_level : family -> float -> bool option
(** [Some true]/[Some false] above 75 % / below 25 % of VDD, [None] in
    between. *)
