(** Circuit netlists: elements over named nodes.  Node "0" (or "gnd",
    any case) is ground. *)

exception Bad_circuit of { element : int option; message : string }
(** A netlist {!create} or {!remodel} rejects.  [element] is the
    position, from 0, of the offending element in the list given to
    {!create} ([None] for a fault of the whole netlist, or from
    {!remodel}); [message] names the element. *)

type cnfet_params = {
  model : Cnt_core.Device_model.t;
  length : float;
      (** tube length in metres; > 0 enables intrinsic terminal
          capacitances *)
}

type element =
  | Resistor of {
      name : string;
      n1 : string;
      n2 : string;
      ohms : float;
    }
  | Capacitor of {
      name : string;
      n1 : string;
      n2 : string;
      farads : float;
    }
  | Inductor of {
      name : string;
      n1 : string;
      n2 : string;
      henries : float;
    }
  | Vsource of {
      name : string;
      npos : string;
      nneg : string;
      wave : Waveform.t;
      ac : float;  (** small-signal magnitude for AC analysis *)
    }
  | Isource of {
      name : string;
      npos : string;
      nneg : string;
      wave : Waveform.t;
      ac : float;
    }
  | Cnfet of {
      name : string;
      drain : string;
      gate : string;
      source : string;
      params : cnfet_params;
    }

type t

val is_ground : string -> bool

module Names : Hashtbl.S with type key = string
(** Hash tables keyed by (canonical) names. *)

val lowercase : string -> string
(** The canonical (lower-case) spelling of a node or element name:
    [String.lowercase_ascii], returning the argument itself when it is
    already lower case. *)

val create : element list -> t
(** Validates name uniqueness, positive R/C/L values, non-negative
    CNFET tube lengths, and the presence of a ground connection.
    Raises {!Bad_circuit} otherwise. *)

val elements : t -> element list
val element_name : element -> string

val nodes : t -> string list
(** Distinct non-ground nodes, lower-cased, in first-appearance
    order.  Computed once, by {!create}. *)

val node_index : t -> string -> int
(** Position of a node (any case) in {!nodes}; [-1] for ground.
    Raises [Not_found] for a node no element references. *)

val terminals : t -> int array
(** {!node_index} of every terminal, computed once by {!create}:
    element by element in declaration order, each element's terminals
    in the order its record lists them ([n1 n2], [npos nneg] or
    [drain gate source]). *)

val find : t -> string -> element option
(** Look an element up by (case-insensitive) name. *)

val resistor : string -> string -> string -> float -> element
val capacitor : string -> string -> string -> float -> element
val inductor : string -> string -> string -> float -> element

val vsource : ?ac:float -> string -> string -> string -> Waveform.t -> element
(** [?ac] sets the source's small-signal magnitude (default 0). *)

val vdc : ?ac:float -> string -> string -> string -> float -> element
val isource : ?ac:float -> string -> string -> string -> Waveform.t -> element

val cnfet :
  ?length:float ->
  string ->
  drain:string ->
  gate:string ->
  source:string ->
  Cnt_core.Cnt_model.t ->
  element
(** A three-terminal CNFET using a fitted piecewise model (n- or p-type
    according to the model's polarity), wrapped through
    {!Cnt_core.Device_model.of_piecewise}.  [?length] (metres, default
    0) scales the per-unit-length electrostatic capacitances into
    intrinsic gate-source/gate-drain capacitors used by transient and
    AC analyses. *)

val cnfet_model :
  ?length:float ->
  string ->
  drain:string ->
  gate:string ->
  source:string ->
  Cnt_core.Device_model.t ->
  element
(** {!cnfet} for any registered device-model backend. *)

val cnfet_intrinsic_caps : cnfet_params -> (float * float) option
(** [(c_gs, c_gd)] in Farads for a device with positive length
    (Meyer-style split of the paper's terminal capacitances); [None]
    for zero-length devices. *)

val remodel : t -> backend:string -> t
(** The same netlist with every CNFET rebuilt from its device card
    under the named backend ({!Cnt_core.Device_model.remodel}).
    Returns the circuit {e physically unchanged} when every CNFET
    already uses that backend — the [--model]/[CNT_MODEL] override is
    then a no-op that keeps compile caches keyed on physical identity
    hot.  Raises {!Bad_circuit} on an unknown backend or a card the
    target backend rejects. *)
