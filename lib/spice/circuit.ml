(* Circuit netlists.  Nodes are named; "0" and "gnd" are the ground
   node.  Elements reference nodes by name; compilation to MNA indices
   happens in Mna. *)

(* [element]: the position, from 0, of the element [create] rejected
   in the list it was given; None for a netlist-wide fault. *)
exception Bad_circuit of { element : int option; message : string }

type cnfet_params = {
  model : Cnt_core.Device_model.t;
  length : float; (* tube length in metres; > 0 enables the intrinsic
                     terminal capacitances (per-unit-length device
                     capacitances times this length, Meyer-style
                     gate-source / gate-drain split) *)
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
      ac : float; (* small-signal magnitude for AC analysis *)
    }
  | Isource of {
      name : string;
      npos : string;
      nneg : string; (* current flows from npos to nneg through the source *)
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

module Names = Hashtbl.Make (String)

type t = {
  elements : element list; (* in declaration order *)
  nodes : string list; (* see [nodes] below; computed once in [create] *)
  node_index : int Names.t; (* lower-cased node -> position in [nodes] *)
  terminals : int array; (* see [terminals] below *)
}

let is_ground n =
  match String.length n with
  | 1 -> n.[0] = '0'
  | 3 ->
      Char.lowercase_ascii n.[0] = 'g'
      && Char.lowercase_ascii n.[1] = 'n'
      && Char.lowercase_ascii n.[2] = 'd'
  | _ -> false

(* [String.lowercase_ascii], except that a name already in lower case
   (every name the parser builds for an instance) comes back as it is
   instead of as a copy. *)
let rec lower_from s i =
  i = String.length s || ((s.[i] < 'A' || s.[i] > 'Z') && lower_from s (i + 1))

let lowercase s = if lower_from s 0 then s else String.lowercase_ascii s

let element_name = function
  | Resistor r -> r.name
  | Capacitor c -> c.name
  | Inductor l -> l.name
  | Vsource v -> v.name
  | Isource i -> i.name
  | Cnfet f -> f.name

(* [f] on each node an element connects: n1 n2, npos nneg, or drain
   gate source. *)
let iter_nodes f = function
  | Resistor { n1; n2; _ } | Capacitor { n1; n2; _ } | Inductor { n1; n2; _ }
    ->
      f n1;
      f n2
  | Vsource { npos; nneg; _ } | Isource { npos; nneg; _ } ->
      f npos;
      f nneg
  | Cnfet { drain; gate; source; _ } ->
      f drain;
      f gate;
      f source

(* Add [key] to [set]; false when it was there already.  One hash. *)
let add_new set key =
  let before = Names.length set in
  Names.replace set key ();
  Names.length set > before

(* All distinct non-ground node names, lower-cased, in first-appearance
   order; the table from each to its position; and the position of
   every terminal's node (-1: ground), element by element. *)
let distinct_nodes elements ~count =
  let index = Names.create (count / 2) in
  let out = ref [] in
  let n_terminals =
    List.fold_left
      (fun acc e -> acc + match e with Cnfet _ -> 3 | _ -> 2)
      0 elements
  in
  let terminals = Array.make n_terminals (-1) and k = ref 0 in
  List.iter
    (iter_nodes (fun n ->
         if not (is_ground n) then begin
           let key = lowercase n in
           terminals.(!k) <-
             (match Names.find index key with
             | i -> i
             | exception Not_found ->
                 let i = Names.length index in
                 Names.add index key i;
                 out := key :: !out;
                 i)
         end;
         incr k))
    elements;
  (List.rev !out, index, terminals)

let create elements =
  (* validate unique names, positive passive values and non-negative
     tube lengths; each guard is a negated comparison, so a NaN value is
     rejected too *)
  let count = List.length elements in
  (* two bindings a bucket on average: the size [Hashtbl] grows to *)
  let seen = Names.create (count / 2) in
  List.iteri
    (fun k e ->
      let bad fmt =
        Printf.ksprintf
          (fun message -> raise (Bad_circuit { element = Some k; message }))
          fmt
      in
      let name = lowercase (element_name e) in
      if not (add_new seen name) then bad "duplicate element name %s" name;
      match e with
      | Resistor r when not (r.ohms > 0.0) ->
          bad "%s: resistance must be positive (got %g)" r.name r.ohms
      | Capacitor c when not (c.farads > 0.0) ->
          bad "%s: capacitance must be positive (got %g)" c.name c.farads
      | Inductor l when not (l.henries > 0.0) ->
          bad "%s: inductance must be positive (got %g)" l.name l.henries
      | Cnfet f when not (f.params.length >= 0.0) ->
          bad "%s: tube length must not be negative (got %g nm)" f.name
            (f.params.length *. 1e9)
      | Resistor _ | Capacitor _ | Inductor _ | Vsource _ | Isource _ | Cnfet _ -> ())
    elements;
  (* every circuit needs a ground reference *)
  let grounded = ref false in
  List.iter (iter_nodes (fun n -> if is_ground n then grounded := true)) elements;
  if elements <> [] && not !grounded then
    raise
      (Bad_circuit
         { element = None; message = "no element connects to ground (node 0/gnd)" });
  let nodes, node_index, terminals = distinct_nodes elements ~count in
  { elements; nodes; node_index; terminals }

let elements t = t.elements
let nodes t = t.nodes

let node_index t name =
  if is_ground name then -1 else Names.find t.node_index (lowercase name)

let terminals t = t.terminals

let find t name =
  let key = lowercase name in
  List.find_opt (fun e -> lowercase (element_name e) = key) t.elements

(* Convenience constructors. *)
let resistor name n1 n2 ohms = Resistor { name; n1; n2; ohms }
let capacitor name n1 n2 farads = Capacitor { name; n1; n2; farads }
let inductor name n1 n2 henries = Inductor { name; n1; n2; henries }

let vsource ?(ac = 0.0) name npos nneg wave =
  Vsource { name; npos; nneg; wave; ac }

let vdc ?ac name npos nneg volts = vsource ?ac name npos nneg (Waveform.dc volts)
let isource ?(ac = 0.0) name npos nneg wave = Isource { name; npos; nneg; wave; ac }

let cnfet_model ?(length = 0.0) name ~drain ~gate ~source model =
  Cnfet { name; drain; gate; source; params = { model; length } }

let cnfet ?length name ~drain ~gate ~source model =
  cnfet_model ?length name ~drain ~gate ~source
    (Cnt_core.Device_model.of_piecewise model)

(* Meyer-style split of the per-unit-length electrostatic capacitances
   into two linear two-terminal capacitors.  Zero-length devices have
   no intrinsic capacitance.  The split lives with the model backend —
   the electrostatics come from the device geometry, so every backend
   computes the same formula. *)
let cnfet_intrinsic_caps params =
  Cnt_core.Device_model.intrinsic_caps params.model ~length:params.length

(* Rebuild every CNFET's model under [backend].  Physically unchanged
   when nothing needs rebuilding, so compile caches keyed on the
   circuit value stay hot and a matching override is bitwise free. *)
let remodel t ~backend =
  let changed = ref false in
  let elements =
    List.map
      (function
        | Cnfet ({ params; _ } as f) as e ->
            if Cnt_core.Device_model.backend params.model = backend then e
            else begin
              match Cnt_core.Device_model.remodel params.model ~backend with
              | Ok model ->
                  changed := true;
                  Cnfet { f with params = { params with model } }
              | Error msg ->
                  raise
                    (Bad_circuit { element = None; message = f.name ^ ": " ^ msg })
            end
        | e -> e)
      t.elements
  in
  if !changed then { t with elements } else t
