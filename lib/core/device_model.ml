(* The pluggable device-model tier.

   A [t] is a circuit-ready model: everything the MNA compiler, the
   batched assembly pipeline and the manifest/export layers need from
   a CNFET model, dispatched to the concrete backend behind it.  The
   assembly evaluates a device table through {!kernel}/{!eval}: one
   range-kernel call per run of consecutive same-backend rows.
   Backends register themselves in a global
   registry under a short name ("piecewise", "vs") together with the
   parameter schema their deck cards accept; decks pick a backend with
   the [model=] card attribute, runs override it with [--model] /
   [CNT_MODEL], and the server accepts a per-request ["model"] config
   field — all three resolve through {!of_card}/{!remodel} here.

   Construction is memoised on the canonical card (backend + polarity +
   resolved parameters) so a netlist with a thousand identical
   transistors builds the model once — this subsumes the parser's old
   fitted-model cache and extends it to every backend.  The memo also
   makes remodelling idempotent: equal cards return the physically same
   model, which keeps the compile caches keyed on physical identity
   hot. *)

open Cnt_physics

type polarity = Cnt_model.polarity =
  | N_type
  | P_type

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The concrete physics behind a model.  Dispatch goes through this
   variant rather than a record of closures: the assembly evaluates a
   whole run of same-backend table rows with one call into the
   backend's range kernel, which needs the concrete models. *)
type impl =
  | Piecewise of Cnt_model.t
  | Vs of Vs_model.t

type t = {
  impl : impl;
  card : (string * string) list;
      (* canonical resolved card attributes (including "model"), plain
         float syntax — [remodel] re-parses these under another backend *)
}

let backend t = match t.impl with Piecewise _ -> "piecewise" | Vs _ -> "vs"

let identity t =
  match t.impl with
  | Piecewise m -> Cnt_model.identity m
  | Vs m -> Vs_model.identity m

let polarity t =
  match t.impl with
  | Piecewise m -> Cnt_model.polarity m
  | Vs m -> Vs_model.polarity m

let device t =
  match t.impl with Piecewise m -> Cnt_model.device m | Vs m -> Vs_model.device m

let card t = t.card

let ids t ~vgs ~vds =
  match t.impl with
  | Piecewise m -> Cnt_model.ids m ~vgs ~vds
  | Vs m -> Vs_model.ids m ~vgs ~vds

let small_signal t ~vgs ~vds =
  match t.impl with
  | Piecewise m -> Cnt_model.small_signal m ~vgs ~vds
  | Vs m -> Vs_model.small_signal m ~vgs ~vds

let gm t ~vgs ~vds =
  let _, g, _ = small_signal t ~vgs ~vds in
  g

let gds t ~vgs ~vds =
  let _, _, g = small_signal t ~vgs ~vds in
  g

let as_piecewise t = match t.impl with Piecewise m -> Some m | Vs _ -> None

(* ---------------------------------------------------------------- *)
(* Table kernels                                                    *)
(* ---------------------------------------------------------------- *)

(* A device table's rows cut into maximal runs of consecutive
   same-backend rows (the table keeps its order), each carrying its
   backend's range state. *)
type run =
  | Piecewise_run of { first : int; range : Cnt_model.range }
  | Vs_run of { first : int; models : Vs_model.t array }

type kernel = run array

let kernel models =
  let n = Array.length models in
  let rec runs first acc =
    if first >= n then Array.of_list (List.rev acc)
    else begin
      let stop = ref (first + 1) in
      while !stop < n && backend models.(!stop) = backend models.(first) do
        incr stop
      done;
      let rows = Array.sub models first (!stop - first) in
      let run =
        match models.(first).impl with
        | Piecewise _ ->
            Piecewise_run
              {
                first;
                range =
                  Cnt_model.range
                    (Array.map
                       (fun m ->
                         match m.impl with Piecewise p -> p | Vs _ -> assert false)
                       rows);
              }
        | Vs _ ->
            Vs_run
              {
                first;
                models =
                  Array.map
                    (fun m -> match m.impl with Vs v -> v | Piecewise _ -> assert false)
                    rows;
              }
      in
      runs !stop (run :: acc)
    end
  in
  runs 0 []

let eval kernel ~fault_i0 ~vgs ~vds ~i0 ~gm ~gds =
  for r = 0 to Array.length kernel - 1 do
    match kernel.(r) with
    | Piecewise_run { first; range } ->
        Cnt_model.eval_range range ~first ~fault_i0 ~vgs ~vds ~i0 ~gm ~gds
    | Vs_run { first; models } ->
        Vs_model.eval_range models ~first ~fault_i0 ~vgs ~vds ~i0 ~gm ~gds
  done

(* ---------------------------------------------------------------- *)
(* Registry                                                         *)
(* ---------------------------------------------------------------- *)

type backend_info = {
  name : string;
  doc : string;
  params : (string * string) list;
}

type backend_impl = {
  info : backend_info;
  build :
    polarity:polarity ->
    number:(string -> float) ->
    (string * string) list ->
    (t, string) result;
}

let registry : (string, backend_impl) Hashtbl.t = Hashtbl.create 4
let registry_order : string list ref = ref []

let register info build =
  if Hashtbl.mem registry info.name then
    invalid_arg ("Device_model.register: duplicate backend " ^ info.name);
  Hashtbl.replace registry info.name { info; build };
  registry_order := !registry_order @ [ info.name ]

let backends () =
  List.map (fun n -> (Hashtbl.find registry n).info) !registry_order

let find name = Option.map (fun b -> b.info) (Hashtbl.find_opt registry name)

let backend_names () = String.concat ", " !registry_order

(* Model construction can be expensive (the piecewise backend fits a
   charge curve), so completed models are memoised on their canonical
   card.  The daemon parses decks from concurrent-ish contexts, so the
   table is mutex-protected; construction happens outside the lock
   (duplicated work on a race, never a deadlock against a backend that
   itself parses). *)
let memo : (string, t) Hashtbl.t = Hashtbl.create 8
let memo_mutex = Mutex.create ()

let memo_find key =
  Mutex.protect memo_mutex (fun () -> Hashtbl.find_opt memo key)

let memo_add key m =
  Mutex.protect memo_mutex (fun () ->
      match Hashtbl.find_opt memo key with
      | Some existing -> existing
      | None ->
          Hashtbl.add memo key m;
          m)

let memo_key ~backend ~polarity card =
  Printf.sprintf "%s|%s|%s" backend
    (match polarity with N_type -> "n" | P_type -> "p")
    (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) card))

let canon f = Printf.sprintf "%.17g" f

(* ---------------------------------------------------------------- *)
(* Shared pieces                                                    *)
(* ---------------------------------------------------------------- *)

(* Meyer-style split of the per-unit-length electrostatic capacitances
   into gate-source / gate-drain capacitors — the electrostatics come
   from the device geometry, not the transport model, so every backend
   shares it (and the piecewise backend stays bitwise-identical to the
   pre-registry Circuit code). *)
let caps_of_device dev ~length =
  if length <= 0.0 then None
  else begin
    let cg = Device.c_gate dev in
    let cd = Device.c_drain dev in
    let cs = Device.c_source dev in
    let cgs = ((0.5 *. cg) +. cs) *. length in
    let cgd = ((0.5 *. cg) +. cd) *. length in
    Some (cgs, cgd)
  end

let intrinsic_caps t ~length = caps_of_device (device t) ~length

(* Device attributes shared by every backend's card (d and tox in nm,
   matching the deck syntax). *)
let device_card (dev : Device.t) =
  [
    ("temp", canon dev.Device.temp);
    ("ef", canon dev.Device.fermi);
    ("d", canon (dev.Device.diameter *. 1e9));
    ("tox", canon (dev.Device.oxide_thickness *. 1e9));
    ("kappa", canon dev.Device.dielectric);
    ("alphag", canon dev.Device.alpha_g);
    ("alphad", canon dev.Device.alpha_d);
  ]

(* Returns the device plus its canonical geometry attributes.  The
   card keeps the resolved nm-level values, NOT a reconstruction from
   the SI device fields: the nm -> m -> nm round-trip is off by an ulp
   for inexact scales, which would give a remodelled card a different
   memo key (and so a physically different model) than the equivalent
   deck spelling. *)
let parse_device ~number attrs =
  let num key default =
    match List.assoc_opt key attrs with Some v -> number v | None -> default
  in
  let temp = num "temp" 300.0
  and fermi = num "ef" (-0.32)
  and d = num "d" 1.0
  and tox = num "tox" 1.5
  and kappa = num "kappa" 3.9
  and alpha_g = num "alphag" 0.88
  and alpha_d = num "alphad" 0.035 in
  let dev =
    Device.create ~temp ~fermi ~diameter:(d *. 1e-9)
      ~oxide_thickness:(tox *. 1e-9) ~dielectric:kappa ~alpha_g ~alpha_d ()
  in
  let card =
    [
      ("temp", canon temp);
      ("ef", canon fermi);
      ("d", canon d);
      ("tox", canon tox);
      ("kappa", canon kappa);
      ("alphag", canon alpha_g);
      ("alphad", canon alpha_d);
    ]
  in
  (dev, card)

(* ---------------------------------------------------------------- *)
(* Piecewise backend (the paper's Model 1 / Model 2)                *)
(* ---------------------------------------------------------------- *)

let of_piecewise ?(card = []) m =
  let card =
    if card <> [] then card
    else
      (* synthesised card for programmatically built models: enough to
         remodel onto another backend (device geometry), and back to a
         stock Model-2 piecewise fit *)
      ("model", "piecewise") :: device_card (Cnt_model.device m)
  in
  { impl = Piecewise m; card }

let piecewise_info =
  {
    name = "piecewise";
    doc =
      "the paper's piecewise mobile-charge models (model=1|2, default 2) with \
       the closed-form self-consistent-voltage solver";
    params =
      [
        ("model", "1 | 2 | piecewise (= 2): piece count of the charge fit");
        ("temp", "temperature, K (default 300)");
        ("ef", "source Fermi level, eV (default -0.32)");
        ("d", "tube diameter, nm (default 1)");
        ("tox", "gate oxide thickness, nm (default 1.5)");
        ("kappa", "oxide relative permittivity (default 3.9)");
        ("alphag", "gate control parameter (default 0.88)");
        ("alphad", "drain control parameter (default 0.035)");
        ("optimise", "0|1: refine boundary offsets for this device");
      ];
  }

let piecewise_build ~polarity ~number attrs =
  let model_no =
    match List.assoc_opt "model" attrs with
    | None | Some "piecewise" -> Ok 2
    | Some v -> (
        match int_of_float (number v) with
        | 1 -> Ok 1
        | 2 -> Ok 2
        | n -> Error (Printf.sprintf "unknown CNFET model=%d (use 1 or 2)" n)
        | exception _ ->
            Error (Printf.sprintf "unknown CNFET model=%s (use 1 or 2)" v))
  in
  match model_no with
  | Error _ as e -> e
  | Ok model_no -> (
      let optimise =
        match List.assoc_opt "optimise" attrs with
        | Some v -> number v <> 0.0
        | None -> false
      in
      match parse_device ~number attrs with
      | exception Invalid_argument msg -> Error msg
      | dev, geometry ->
          let card =
            ("model", string_of_int model_no)
            :: geometry
            @ [ ("optimise", if optimise then "1" else "0") ]
          in
          let key = memo_key ~backend:"piecewise" ~polarity card in
          let m =
            match memo_find key with
            | Some m -> m
            | None ->
                let spec =
                  if model_no = 1 then Charge_fit.model1_spec
                  else Charge_fit.model2_spec
                in
                memo_add key
                  (of_piecewise ~card
                     (Cnt_model.make ~polarity ~spec ~optimise dev))
          in
          Ok m)

(* ---------------------------------------------------------------- *)
(* Virtual-source backend                                           *)
(* ---------------------------------------------------------------- *)

let of_vs ?(card = []) m =
  let card =
    if card <> [] then card
    else begin
      let p = Vs_model.params m in
      (("model", "vs") :: device_card (Vs_model.device m))
      @ [
          ("vt0", canon p.Vs_model.vt0);
          ("dibl", canon p.Vs_model.dibl);
          ("nss", canon p.Vs_model.n_ss);
          ("vxo", canon p.Vs_model.vxo);
          ("beta", canon p.Vs_model.beta);
          ("vdsat", canon p.Vs_model.vdsat);
          ("cinv", canon p.Vs_model.cinv);
        ]
    end
  in
  { impl = Vs m; card }

let vs_info =
  {
    name = "vs";
    doc =
      "virtual-source ballistic CNFET model (Lee et al.): closed-form \
       charge-times-injection-velocity current with DIBL and an empirical \
       saturation function; no fitting step";
    params =
      [
        ("temp", "temperature, K (default 300)");
        ("ef", "source Fermi level, eV — device geometry only");
        ("d", "tube diameter, nm (default 1)");
        ("tox", "gate oxide thickness, nm (default 1.5)");
        ("kappa", "oxide relative permittivity (default 3.9)");
        ("vt0", "threshold voltage at VDS=0, V (default 0.3)");
        ("dibl", "drain-induced barrier lowering, V/V (default 0.05)");
        ("nss", "subthreshold ideality factor (default 1.1)");
        ("vxo", "injection velocity, m/s (default 4e5)");
        ("beta", "saturation transition exponent (default 1.8)");
        ("vdsat", "saturation voltage, V (default 3 n phi_t)");
        ("cinv", "inversion capacitance, F/m (default coaxial C_G)");
      ];
  }

let vs_build ~polarity ~number attrs =
  let opt key = Option.map number (List.assoc_opt key attrs) in
  match parse_device ~number attrs with
  | exception Invalid_argument msg -> Error msg
  | dev, geometry -> (
      match
        Vs_model.make ~polarity ?vt0:(opt "vt0") ?dibl:(opt "dibl")
          ?n_ss:(opt "nss") ?vxo:(opt "vxo") ?beta:(opt "beta")
          ?vdsat:(opt "vdsat") ?cinv:(opt "cinv") dev
      with
      | exception Invalid_argument msg -> Error msg
      | m ->
          (* memoise on the fully resolved card so defaulted, explicit
             and remodelled spellings of the same model share one
             instance *)
          let p = Vs_model.params m in
          let card =
            (("model", "vs") :: geometry)
            @ [
                ("vt0", canon p.Vs_model.vt0);
                ("dibl", canon p.Vs_model.dibl);
                ("nss", canon p.Vs_model.n_ss);
                ("vxo", canon p.Vs_model.vxo);
                ("beta", canon p.Vs_model.beta);
                ("vdsat", canon p.Vs_model.vdsat);
                ("cinv", canon p.Vs_model.cinv);
              ]
          in
          let key = memo_key ~backend:"vs" ~polarity card in
          Ok
            (match memo_find key with
            | Some m -> m
            | None -> memo_add key (of_vs ~card m)))

let () =
  register piecewise_info piecewise_build;
  register vs_info vs_build

(* ---------------------------------------------------------------- *)
(* Card resolution and remodelling                                  *)
(* ---------------------------------------------------------------- *)

(* Which backend does a card's [model=] attribute name?  Bare integers
   are piecewise specs for deck compatibility. *)
let backend_of_attr = function
  | None -> Ok "piecewise"
  | Some v -> (
      match v with
      | "1" | "2" | "piecewise" -> Ok "piecewise"
      | v when Hashtbl.mem registry v -> Ok v
      | v ->
          Error
            (Printf.sprintf
               "unknown device model %S (use 1, 2 or a registered backend: %s)"
               v (backend_names ())))

let of_card ?backend ~polarity ~number attrs =
  let chosen =
    match backend with
    | Some b -> (
        match Hashtbl.mem registry b with
        | true -> Ok b
        | false ->
            Error
              (Printf.sprintf "unknown model backend %S (registered: %s)" b
                 (backend_names ())))
    | None -> backend_of_attr (List.assoc_opt "model" attrs)
  in
  match chosen with
  | Error _ as e -> e
  | Ok name -> (Hashtbl.find registry name).build ~polarity ~number attrs

let plain_number s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> invalid_arg ("Device_model: bad number " ^ s)

let remodel m ~backend:name =
  if backend m = name then Ok m
  else
    let attrs = List.remove_assoc "model" m.card in
    of_card ~backend:name ~polarity:(polarity m) ~number:plain_number attrs

(* ---------------------------------------------------------------- *)
(* Ambient run-level override (--model / CNT_MODEL)                 *)
(* ---------------------------------------------------------------- *)

(* [None] = unresolved; [Some None] = resolved, no override.  An empty
   CNT_MODEL counts as unset so harnesses can neutralise the variable. *)
let override_state : string option option ref = ref None

let default_override () =
  match !override_state with
  | Some o -> o
  | None ->
      let o =
        match Sys.getenv_opt "CNT_MODEL" with
        | None | Some "" -> None
        | Some s -> Some s
      in
      override_state := Some o;
      o

let set_default_override o = override_state := Some o
