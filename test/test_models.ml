(* The pluggable device-model tier: registry dispatch, deck [model=]
   parsing, per-backend evaluation invariants (batched stencil bitwise
   equal to scalar calls, I_DS monotone in V_DS), closed-form gm/gds against a central-difference oracle, the
   --model / CNT_MODEL run override, the deck-cache identity contract
   (two decks differing only in model never share entries), and
   per-backend golden CSVs for a DC sweep and a transient.

   To regenerate the golden CSVs after an intentional change, run from
   the project root:

     CNT_BLESS=1 dune exec test/test_models.exe *)

open Cnt_spice
module DM = Cnt_core.Device_model

(* This suite picks its backends explicitly (configs, --model):
   neutralise any ambient CNT_MODEL (the CI model matrix) for this
   process and the cspice child — empty counts as unset. *)
let () = Unix.putenv "CNT_MODEL" ""

let backends_under_test = [ "piecewise"; "vs" ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Resolve build-tree files relative to this executable so the suite
   behaves the same under `dune runtest` and `dune exec`. *)
let test_dir = Filename.dirname Sys.executable_name
let in_test_dir path = Filename.concat test_dir path
let deck_path name = in_test_dir (Filename.concat "decks" (name ^ ".cir"))
let blessing = Sys.getenv_opt "CNT_BLESS" = Some "1"

let run_ok ?config deck =
  match Engine.run_deck_result ?config deck with
  | Ok tables -> tables
  | Error e -> Alcotest.failf "engine error: %s" (Diag.error_message e)

let cnfet_model circuit name =
  match Circuit.find circuit name with
  | Some (Circuit.Cnfet { params; _ }) -> params.Circuit.model
  | _ -> Alcotest.failf "no CNFET %s" name

let parse_mn1 attrs =
  let deck =
    Parser.parse
      (Printf.sprintf "t\nVD d 0 0.4\nVG g 0 0.5\nM1 d g 0 CNFET %s\n.op\n.end"
         attrs)
  in
  cnfet_model deck.Parser.circuit "M1"

let check_bits msg a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    Alcotest.failf "%s: %.17g <> %.17g" msg a b

let check_tables_bitwise msg a b =
  Alcotest.(check int) (msg ^ ": table count") (List.length a) (List.length b);
  List.iter2
    (fun (x : Engine.table) (y : Engine.table) ->
      Alcotest.(check (array string)) (msg ^ ": columns") x.columns y.columns;
      Alcotest.(check int)
        (msg ^ ": rows")
        (Array.length x.rows) (Array.length y.rows);
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j v ->
              check_bits (Printf.sprintf "%s: row %d col %d" msg i j) v
                y.rows.(i).(j))
            row)
        x.rows)
    a b

(* ------------------------------------------------------------------ *)
(* Registry and deck dispatch                                          *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  let names = List.map (fun b -> b.DM.name) (DM.backends ()) in
  List.iter
    (fun b ->
      Alcotest.(check bool) (b ^ " registered") true (List.mem b names);
      Alcotest.(check bool) (b ^ " findable") true (DM.find b <> None))
    backends_under_test;
  Alcotest.(check bool) "unknown not findable" true (DM.find "nope" = None);
  let listing = DM.backend_names () in
  List.iter
    (fun b ->
      Alcotest.(check bool) (b ^ " listed in backend_names") true
        (contains listing b))
    backends_under_test

let test_deck_model_dispatch () =
  Alcotest.(check string) "default" "piecewise" (DM.backend (parse_mn1 ""));
  Alcotest.(check string) "model=1" "piecewise" (DM.backend (parse_mn1 "model=1"));
  Alcotest.(check string) "model=2" "piecewise" (DM.backend (parse_mn1 "model=2"));
  Alcotest.(check string) "model=vs" "vs" (DM.backend (parse_mn1 "model=vs"));
  Alcotest.(check string) "model=vs with params" "vs"
    (DM.backend (parse_mn1 "model=vs vt0=0.25 dibl=0.08"));
  match parse_mn1 "model=nope" with
  | exception Parser.Parse_error err ->
      Alcotest.(check bool) "message names the bad backend" true
        (contains err.Parser.message "nope")
  | _ -> Alcotest.fail "unknown model must not parse"

let test_memoised_construction () =
  let deck =
    Parser.parse
      "t\nVD d 0 0.4\nM1 d d 0 CNFET model=vs\nM2 d d 0 CNFET model=vs\n.op\n.end"
  in
  let m1 = cnfet_model deck.Parser.circuit "M1" in
  let m2 = cnfet_model deck.Parser.circuit "M2" in
  Alcotest.(check bool) "same instance within a deck" true (m1 == m2);
  Alcotest.(check bool) "same instance across parses" true
    (parse_mn1 "model=vs" == parse_mn1 "model=vs");
  Alcotest.(check bool) "different params, different instance" true
    (parse_mn1 "model=vs" != parse_mn1 "model=vs vt0=0.25")

let test_identity () =
  let pcm = parse_mn1 "" and vs = parse_mn1 "model=vs" in
  Alcotest.(check bool) "identities differ across backends" true
    (DM.identity pcm <> DM.identity vs);
  Alcotest.(check bool) "vs params feed identity" true
    (DM.identity vs <> DM.identity (parse_mn1 "model=vs vt0=0.25"));
  Alcotest.(check string) "same card, same identity" (DM.identity vs)
    (DM.identity (parse_mn1 "model=vs"))

let test_remodel () =
  let pcm = parse_mn1 "" in
  (match DM.remodel pcm ~backend:"vs" with
  | Ok vs ->
      Alcotest.(check string) "remodelled backend" "vs" (DM.backend vs);
      Alcotest.(check bool) "current is finite under bias" true
        (Float.is_finite (DM.ids vs ~vgs:0.5 ~vds:0.4))
  | Error msg -> Alcotest.failf "remodel to vs failed: %s" msg);
  (match DM.remodel pcm ~backend:"piecewise" with
  | Ok same ->
      Alcotest.(check bool) "matching remodel is identity" true (same == pcm)
  | Error msg -> Alcotest.failf "identity remodel failed: %s" msg);
  match DM.remodel pcm ~backend:"nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "remodel to unknown backend must fail"

let test_circuit_remodel_noop () =
  let deck = Parser.parse "t\nVD d 0 0.4\nM1 d d 0 CNFET\n.op\n.end" in
  let c = deck.Parser.circuit in
  Alcotest.(check bool) "matching backend: physically unchanged" true
    (Circuit.remodel c ~backend:"piecewise" == c);
  let c' = Circuit.remodel c ~backend:"vs" in
  Alcotest.(check bool) "changed backend: new circuit" true (c' != c);
  Alcotest.(check string) "devices rebuilt" "vs"
    (DM.backend (cnfet_model c' "M1"));
  match Circuit.remodel c ~backend:"nope" with
  | exception Circuit.Bad_circuit _ -> ()
  | _ -> Alcotest.fail "unknown backend must raise Bad_circuit"

(* ------------------------------------------------------------------ *)
(* Per-backend evaluation invariants                                   *)
(* ------------------------------------------------------------------ *)

let model_of_backend backend =
  match DM.of_card ~backend ~polarity:DM.N_type ~number:float_of_string [] with
  | Ok m -> m
  | Error msg -> Alcotest.failf "%s: of_card failed: %s" backend msg

(* Small negative V_DS points included deliberately: they take the
   reverse-bias branches (vs's source/drain swap, the piecewise drain
   curve shifted past the source one), so both paths must agree there
   too. *)
let bias_grid =
  List.concat_map
    (fun vgs ->
      List.map
        (fun vds -> (vgs, vds))
        [ -0.05; 0.0; 0.05; 0.13; 0.3; 0.45; 0.6 ])
    [ 0.0; 0.05; 0.13; 0.3; 0.45; 0.6 ]

(* The assembly's table kernel on a one-row table against the scalar
   entry points, and the NaN fault site. *)
let test_stencil_matches_scalar backend () =
  let m = model_of_backend backend in
  let kernel = DM.kernel [| m |] in
  let vec () = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 1 in
  let vgs_col = vec () and vds_col = vec () in
  let i0 = vec () and gm = vec () and gds = vec () in
  let skip = Bytes.make 1 '\000' in
  List.iter
    (fun (vgs, vds) ->
      Bigarray.Array1.set vgs_col 0 vgs;
      Bigarray.Array1.set vds_col 0 vds;
      let eval fault_i0 =
        DM.eval kernel ~fault_i0 ~skip ~vgs:vgs_col ~vds:vds_col ~i0 ~gm ~gds
      in
      eval false;
      let at (v : DM.vec) = Bigarray.Array1.get v 0 in
      let tag p = Printf.sprintf "%s %s vgs=%g vds=%g" backend p vgs vds in
      let ids, gmv, gdsv = DM.small_signal m ~vgs ~vds in
      check_bits (tag "i0") (DM.ids m ~vgs ~vds) (at i0);
      check_bits (tag "small_signal i0") ids (at i0);
      check_bits (tag "gm") gmv (at gm);
      check_bits (tag "gds") gdsv (at gds);
      (* an injected NaN fault poisons only the current *)
      eval true;
      Alcotest.(check bool) (tag "fault i0 is NaN") true (Float.is_nan (at i0));
      check_bits (tag "fault gm") gmv (at gm);
      check_bits (tag "fault gds") gdsv (at gds))
    bias_grid

let test_monotone_ids backend () =
  let m = model_of_backend backend in
  List.iter
    (fun vgs ->
      let prev = ref neg_infinity in
      for k = 0 to 24 do
        let vds = 0.025 *. float_of_int k in
        let i = DM.ids m ~vgs ~vds in
        if i < !prev -. 1e-15 then
          Alcotest.failf "%s: ids not monotone at vgs=%g vds=%g (%g < %g)"
            backend vgs vds i !prev;
        prev := i
      done)
    [ 0.3; 0.45; 0.6 ]

(* A drain-current column runs the device's range kernel on a one-row
   table of its own; every cell must be the scalar [DM.ids] at that
   row's solved node voltages, bitwise, for the n-type and the p-type
   device, through a DC sweep and a transient. *)
let test_print_id_matches_ids backend () =
  let deck =
    Parser.parse
      (Printf.sprintf
         "t\nVDD vdd 0 0.6\nVIN in 0 PULSE(0 0.6 20p 20p 20p 100p 300p)\n\
          MP out in vdd PCNFET model=%s l=100\nMN out in 0 CNFET model=%s l=100\n\
          CL out 0 1f\n.dc VIN 0 0.6 0.02\n.tran 5p 200p\n\
          .print v(in) v(out) v(vdd) id(MN) id(MP)\n.end"
         backend backend)
  in
  let mn = cnfet_model deck.Parser.circuit "MN"
  and mp = cnfet_model deck.Parser.circuit "MP" in
  Alcotest.(check string) "n-type backend" backend (DM.backend mn);
  Alcotest.(check bool) "p-type device" true (DM.polarity mp = DM.P_type);
  let tables = run_ok deck in
  Alcotest.(check int) "dc and tran tables" 2 (List.length tables);
  List.iter
    (fun (t : Engine.table) ->
      Array.iteri
        (fun i row ->
          let vin = row.(1) and vout = row.(2) and vdd = row.(3) in
          let tag dev = Printf.sprintf "%s %s row %d %s" backend t.analysis_label i dev in
          check_bits (tag "id(mn)") (DM.ids mn ~vgs:vin ~vds:vout) row.(4);
          check_bits (tag "id(mp)") (DM.ids mp ~vgs:(vin -. vdd) ~vds:(vout -. vdd)) row.(5))
        t.rows)
    tables

let sweep_deck_text ?(step = 0.05) backend =
  Printf.sprintf
    "t\nVDD vdd 0 0.6\nVIN in 0 0\nMP out in vdd PCNFET model=%s\nMN out in 0 \
     CNFET model=%s\n.dc VIN 0 0.6 %g\n.print v(out) id(MN)\n.end"
    backend backend step

(* ------------------------------------------------------------------ *)
(* Closed-form conductances against the finite-difference oracle       *)
(* ------------------------------------------------------------------ *)

(* The central difference the Newton stencil used before every backend
   had closed-form conductances, at its step dv = 1e-4: now only an
   oracle. *)
let fd_dv = 1e-4

let central_difference ~h m ~vgs ~vds =
  ( (DM.ids m ~vgs:(vgs +. h) ~vds -. DM.ids m ~vgs:(vgs -. h) ~vds)
    /. (2.0 *. h),
    (DM.ids m ~vgs ~vds:(vds +. h) -. DM.ids m ~vgs ~vds:(vds -. h))
    /. (2.0 *. h) )

let fd_conductances = central_difference ~h:fd_dv

(* At a C^1 seam the curvature jumps inside the stencil, so a central
   difference centred on the seam is off by O(h); one Richardson step,
   2 D(h/2) - D(h), cancels that term. *)
let fd_richardson m ~vgs ~vds =
  let gm1, gds1 = fd_conductances m ~vgs ~vds in
  let gm2, gds2 = central_difference ~h:(fd_dv /. 2.0) m ~vgs ~vds in
  ((2.0 *. gm2) -. gm1, (2.0 *. gds2) -. gds1)

(* Tolerance: the relative error of the device's Jacobian row in the
   1-norm, |dgm| + |dgds| <= 1e-4 (|gm| + |gds|).  The oracle's own
   truncation error at dv = 1e-4 is about dv^2 / (6 kT^2), at most
   1.5e-5 over the corner set (150 K); the closed form agrees with a
   1e-6 step to 5e-8. *)
let jacobian_rtol = 1e-4

let check_jacobian ?(oracle = fd_conductances) label m ~vgs ~vds =
  let _, gm, gds = DM.small_signal m ~vgs ~vds in
  let fgm, fgds = oracle m ~vgs ~vds in
  let err =
    (Float.abs (gm -. fgm) +. Float.abs (gds -. fgds))
    /. (Float.abs gm +. Float.abs gds)
  in
  if not (err <= jacobian_rtol) then
    Alcotest.failf
      "%s vgs=%.17g vds=%.17g: gm %g (oracle %g), gds %g (oracle %g), \
       relative error %g > %g"
      label vgs vds gm fgm gds fgds err jacobian_rtol

(* The paper's corner set: T in {150, 300, 450} K x E_F in {-0.5,
   -0.32, 0} eV, through the card attributes.  Builds are memoised on
   the card, so each card kind fits at most 9 models per polarity. *)
let corner_temps = [ 150.0; 300.0; 450.0 ]
let corner_efs = [ -0.5; -0.32; 0.0 ]

(* Every registered backend on its default card, plus piecewise Model 1
   (the default piecewise card is Model 2). *)
let jacobian_cards =
  List.map (fun (b : DM.backend_info) -> (b.DM.name, b.DM.name, []))
    (DM.backends ())
  @ [ ("piecewise model=1", "piecewise", [ ("model", "1") ]) ]

let corner_model (_, backend, attrs) ~polarity ~temp ~ef =
  let num v = Printf.sprintf "%.17g" v in
  match
    DM.of_card ~backend ~polarity ~number:float_of_string
      (("temp", num temp) :: ("ef", num ef) :: attrs)
  with
  | Ok m -> m
  | Error msg -> Alcotest.failf "of_card %s failed: %s" backend msg

let polarity_sign = function DM.N_type -> 1.0 | DM.P_type -> -1.0
let polarity_name = function DM.N_type -> "n" | DM.P_type -> "p"

let boundaries pm =
  Cnt_core.Piecewise.boundaries (Cnt_core.Cnt_model.charge_approx pm)

(* Within 2 dv of a C^1 seam — a piecewise charge boundary under V_SC or
   V_SC + V_DS, or vs's source/drain swap at V_DS = 0 — the central
   difference straddles a curvature jump and is itself off by O(dv)
   (up to ~5e-4 relative).  Neither V_SC nor V_SC + V_DS moves by more
   than dv across the stencil, so such points are left to the explicit
   seam cases below. *)
let near_seam m ~vgs ~vds =
  let margin = 2.0 *. fd_dv in
  match DM.as_piecewise m with
  | None -> Float.abs vds < margin
  | Some pm ->
      let vsc = Cnt_core.Cnt_model.solve_vsc pm ~vgs ~vds in
      let ovds = polarity_sign (DM.polarity m) *. vds in
      let near x = Float.abs x < margin in
      Array.exists
        (fun b -> near (vsc -. b) || near (vsc +. ovds -. b))
        (boundaries pm)

let jacobian_case_gen =
  QCheck2.Gen.(
    tup6 (oneofl jacobian_cards)
      (oneofl [ DM.N_type; DM.P_type ])
      (oneofl corner_temps) (oneofl corner_efs) (float_range 0.0 0.6)
      (float_range (-0.1) 0.6))

let print_jacobian_case ((label, _, _), polarity, temp, ef, vgs, vds) =
  Printf.sprintf "%s %s T=%g E_F=%g V_GS=%.17g V_DS=%.17g" label
    (polarity_name polarity) temp ef vgs vds

(* Biases are drawn for the n-type orientation and mirrored for p-type,
   so both polarities are exercised in the same regimes. *)
let prop_jacobian_matches_fd =
  QCheck2.Test.make
    ~name:"closed-form gm/gds = central difference (dv = 1e-4)" ~count:2000
    ~print:print_jacobian_case jacobian_case_gen
    (fun ((label, _, _) as card, polarity, temp, ef, vgs, vds) ->
      let m = corner_model card ~polarity ~temp ~ef in
      let sign = polarity_sign polarity in
      let vgs = sign *. vgs and vds = sign *. vds in
      if not (near_seam m ~vgs ~vds) then
        check_jacobian
          (Printf.sprintf "%s %s T=%g E_F=%g" label (polarity_name polarity)
             temp ef)
          m ~vgs ~vds;
      true)

(* Bisection on V_GS for the bias whose self-consistent voltage, plus
   [shift], sits on [target]: V_SC is monotone in V_GS. *)
let vgs_on_boundary pm ~vds ~shift ~target =
  let f vgs = Cnt_core.Cnt_model.solve_vsc pm ~vgs ~vds +. shift -. target in
  let lo = ref (-5.0) and hi = ref 5.0 in
  let flo = f !lo in
  if flo *. f !hi > 0.0 then None
  else begin
    for _ = 1 to 100 do
      let mid = 0.5 *. (!lo +. !hi) in
      if f mid > 0.0 = (flo > 0.0) then lo := mid else hi := mid
    done;
    Some (0.5 *. (!lo +. !hi))
  end

(* Every (polarity, T, E_F) of the corner set. *)
let corner_cases =
  List.concat_map
    (fun polarity ->
      List.concat_map
        (fun temp -> List.map (fun ef -> (polarity, temp, ef)) corner_efs)
        corner_temps)
    [ DM.N_type; DM.P_type ]

(* The C^1 seams of Models 1 and 2: V_SC (source side) or V_SC + V_DS
   (drain side) within 1e-9 V of every piece boundary, at every corner
   and both polarities, against the Richardson-corrected oracle at the
   same tolerance. *)
let test_jacobian_piece_boundaries () =
  let sides = [ (0.05, false); (0.4, false); (0.05, true); (0.4, true) ] in
  List.iter
    (fun model ->
      List.iter
        (fun (polarity, temp, ef) ->
          let m =
            corner_model ("", "piecewise", [ ("model", model) ]) ~polarity
              ~temp ~ef
          in
          let pm = Option.get (DM.as_piecewise m) in
          let tag =
            Printf.sprintf "model %s %s T=%g E_F=%g" model
              (polarity_name polarity) temp ef
          in
          let check_seam b (ovds, drain_side) =
            let vds = polarity_sign polarity *. ovds in
            let shift = if drain_side then ovds else 0.0 in
            match vgs_on_boundary pm ~vds ~shift ~target:b with
            | None -> Alcotest.failf "%s: boundary %g unreachable" tag b
            | Some vgs ->
                let vsc = Cnt_core.Cnt_model.solve_vsc pm ~vgs ~vds in
                if Float.abs (vsc +. shift -. b) > 1e-9 then
                  Alcotest.failf "%s: bisection missed boundary %g" tag b;
                check_jacobian ~oracle:fd_richardson
                  (Printf.sprintf "%s boundary %g (%s side)" tag b
                     (if drain_side then "drain" else "source"))
                  m ~vgs ~vds
          in
          Array.iter (fun b -> List.iter (check_seam b) sides) (boundaries pm))
        corner_cases)
    [ "1"; "2" ]

(* vs's source/drain swap: at V_DS = 0 the current is C^1 but its
   curvature jumps, hence the Richardson-corrected oracle.  Above
   u = (V_GS - V_T) / (n phi_t) = 40 (V_GS > ~1.44 V at the defaults)
   the softplus clamps to its argument with slope exactly 1. *)
let test_jacobian_vs_seams () =
  List.iter
    (fun (polarity, temp, ef) ->
      let m = corner_model ("vs", "vs", []) ~polarity ~temp ~ef in
      let sign = polarity_sign polarity in
      let tag = Printf.sprintf "vs %s T=%g" (polarity_name polarity) temp in
      List.iter
        (fun vgs ->
          check_jacobian ~oracle:fd_richardson (tag ^ " V_DS=0") m
            ~vgs:(sign *. vgs) ~vds:0.0)
        [ -0.2; 0.0; 0.1; 0.3; 0.45; 0.6 ];
      List.iter
        (fun (vgs, vds) ->
          check_jacobian (tag ^ " softplus clamp") m ~vgs:(sign *. vgs)
            ~vds:(sign *. vds))
        [ (1.6, 0.3); (2.0, 0.05); (2.0, -0.3) ])
    (List.filter (fun (_, _, ef) -> ef = -0.32) corner_cases)

(* The closed form divides by D = C_Sigma - Q_S'(V_SC) - Q_S'(V_SC + V_DS).
   The physical charge curve is non-increasing, so D >= C_Sigma; a
   least-squares piece may overshoot to a small positive slope, so pin
   C_Sigma - 2 max Q_S' > 0 — D bounded away from zero at any bias — for
   every fitted corner. *)
let test_jacobian_denominator () =
  List.iter
    (fun model ->
      List.iter
        (fun (polarity, temp, ef) ->
          let pm =
            Option.get
              (DM.as_piecewise
                 (corner_model ("", "piecewise", [ ("model", model) ])
                    ~polarity ~temp ~ef))
          in
          let solver = Cnt_core.Cnt_model.solver pm in
          let bs = boundaries pm in
          let lo = bs.(0) -. 1.0 and hi = bs.(Array.length bs - 1) +. 1.0 in
          let worst = ref neg_infinity in
          for k = 0 to 4000 do
            let x = lo +. ((hi -. lo) *. float_of_int k /. 4000.0) in
            worst :=
              Float.max !worst (Cnt_core.Scv_solver.qs_slope solver x)
          done;
          let c_sigma = Cnt_core.Scv_solver.c_sigma solver in
          if not (c_sigma -. (2.0 *. !worst) > 0.0) then
            Alcotest.failf
              "model %s T=%g E_F=%g: max Q_S' %g leaves D unbounded \
               (C_Sigma %g)"
              model temp ef !worst c_sigma)
        (List.filter (fun (p, _, _) -> p = DM.N_type) corner_cases))
    [ "1"; "2" ]

(* ------------------------------------------------------------------ *)
(* The run-level override                                              *)
(* ------------------------------------------------------------------ *)

let plain_deck_text =
  "t\nVDD vdd 0 0.6\nVIN in 0 0\nMP out in vdd PCNFET\nMN out in 0 CNFET\n.dc \
   VIN 0 0.6 0.1\n.print v(out) id(MN)\n.end"

let test_override_matching_is_noop () =
  let base = run_ok (Parser.parse plain_deck_text) in
  let forced =
    run_ok
      ~config:(Engine.config ~model:"piecewise" ())
      (Parser.parse plain_deck_text)
  in
  check_tables_bitwise "piecewise override on piecewise deck" base forced

let test_override_equals_deck_attr () =
  (* forcing --model vs over a plain deck is the same computation as
     writing model=vs on every card: both resolve through the same
     card memo, so the waveforms are bitwise equal *)
  let overridden =
    run_ok ~config:(Engine.config ~model:"vs" ()) (Parser.parse plain_deck_text)
  in
  let in_deck = run_ok (Parser.parse (sweep_deck_text ~step:0.1 "vs")) in
  check_tables_bitwise "override = per-card model attr" overridden in_deck

let test_override_changes_result () =
  let last_current tables =
    match tables with
    | (t : Engine.table) :: _ ->
        t.rows.(Array.length t.rows - 1).(Array.length t.columns - 1)
    | [] -> Alcotest.fail "no tables"
  in
  let base = last_current (run_ok (Parser.parse plain_deck_text)) in
  let vs =
    last_current
      (run_ok
         ~config:(Engine.config ~model:"vs" ())
         (Parser.parse plain_deck_text))
  in
  Alcotest.(check bool) "vs override changes the device current" true
    (base <> vs)

let test_override_unknown () =
  match
    Engine.run_deck_result
      ~config:(Engine.config ~model:"nope" ())
      (Parser.parse plain_deck_text)
  with
  | Error (Diag.Bad_deck msg) ->
      Alcotest.(check bool) "names the backend" true (contains msg "nope")
  | Ok _ -> Alcotest.fail "unknown override must fail"
  | Error e -> Alcotest.failf "wrong error kind: %s" (Diag.error_kind e)

let test_default_override () =
  Fun.protect ~finally:(fun () -> DM.set_default_override None) @@ fun () ->
  DM.set_default_override (Some "vs");
  let ambient = run_ok (Parser.parse plain_deck_text) in
  DM.set_default_override None;
  let explicit =
    run_ok ~config:(Engine.config ~model:"vs" ()) (Parser.parse plain_deck_text)
  in
  check_tables_bitwise "ambient default = explicit config" ambient explicit

(* ------------------------------------------------------------------ *)
(* Cache identity                                                      *)
(* ------------------------------------------------------------------ *)

let test_deck_cache_model_keyed () =
  let cache = Cnt_server.Deck_cache.create () in
  let get ?model () =
    match Cnt_server.Deck_cache.find_or_parse ?model cache plain_deck_text with
    | Ok (e, hit) -> (e, hit)
    | Error err -> Alcotest.failf "deck cache: %s" (Diag.error_message err)
  in
  let plain, hit0 = get () in
  let vs, hit1 = get ~model:"vs" () in
  Alcotest.(check bool) "first plain lookup misses" false hit0;
  Alcotest.(check bool) "same text, other model: still a miss" false hit1;
  Alcotest.(check bool) "entries are distinct" true (plain != vs);
  Alcotest.(check string) "vs entry is remodelled" "vs"
    (DM.backend
       (cnfet_model vs.Cnt_server.Deck_cache.deck.Parser.circuit "MN"));
  Alcotest.(check string) "plain entry untouched" "piecewise"
    (DM.backend
       (cnfet_model plain.Cnt_server.Deck_cache.deck.Parser.circuit "MN"));
  let _, hit2 = get () in
  let _, hit3 = get ~model:"vs" () in
  Alcotest.(check bool) "plain re-lookup hits" true hit2;
  Alcotest.(check bool) "vs re-lookup hits" true hit3

(* ------------------------------------------------------------------ *)
(* Golden CSVs per backend                                             *)
(* ------------------------------------------------------------------ *)

let check_golden ~name actual =
  if blessing then begin
    write_file (Filename.concat "test/golden" (name ^ ".csv")) actual;
    Printf.printf "blessed test/golden/%s.csv (%d bytes)\n%!" name
      (String.length actual)
  end
  else begin
    let path = in_test_dir (Filename.concat "golden" (name ^ ".csv")) in
    let expected =
      try read_file path
      with Sys_error _ ->
        Alcotest.failf
          "missing golden file %s (regenerate with CNT_BLESS=1 dune exec \
           test/test_models.exe from the project root)"
          path
    in
    if expected <> actual then
      Alcotest.failf
        "%s: output differs from golden %s\n--- expected ---\n%s--- actual \
         ---\n%s(regenerate with CNT_BLESS=1 dune exec test/test_models.exe \
         if the change is intentional)"
        name path expected actual
  end

let test_golden_csv backend deck () =
  let tables =
    run_ok
      ~config:(Engine.config ~model:backend ())
      (Parser.parse (read_file (deck_path deck)))
  in
  let csv = String.concat "" (List.map Engine.table_to_csv tables) in
  check_golden ~name:(Printf.sprintf "%s_%s" deck backend) csv

(* models_dc_vs.csv as blessed under the finite-difference Jacobian.
   The closed-form conductances move the Newton iterate, so the
   converged VIN = 0.6 row moved in its ninth digit when the golden was
   rebased; every cell must stay within 2e-8 relative (two units of the
   ninth significant digit the CSV prints) of these bytes. *)
let models_dc_vs_fd_golden =
  "vin,v(out),id(mn)\n\
   0,0.599999399,1.3179928e-10\n\
   0.2,0.598069542,1.42885536e-07\n\
   0.4,0.00193044991,1.42885536e-07\n\
   0.6,5.98688619e-07,1.31799279e-10\n"

let test_vs_golden_near_fd () =
  let tables =
    run_ok
      ~config:(Engine.config ~model:"vs" ())
      (Parser.parse (read_file (deck_path "models_dc")))
  in
  let cells text =
    List.map (String.split_on_char ',')
      (String.split_on_char '\n' (String.trim text))
  in
  match
    ( cells models_dc_vs_fd_golden,
      cells (String.concat "" (List.map Engine.table_to_csv tables)) )
  with
  | old_header :: old_rows, header :: rows ->
      Alcotest.(check (list string)) "header" old_header header;
      Alcotest.(check int) "rows" (List.length old_rows) (List.length rows);
      List.iter2
        (List.iter2 (fun o l ->
             let a = float_of_string o and b = float_of_string l in
             if Float.abs (a -. b) > 2e-8 *. Float.abs a then
               Alcotest.failf "cell %s moved to %s" o l))
        old_rows rows
  | _ -> Alcotest.fail "empty CSV"

(* ------------------------------------------------------------------ *)
(* The cspice flag, end to end                                         *)
(* ------------------------------------------------------------------ *)

let test_cspice_model_flag () =
  let exe =
    in_test_dir (Filename.concat ".." (Filename.concat "bin" "cspice.exe"))
  in
  List.iter
    (fun (backend, deck) ->
      let out = Filename.temp_file "cnt_models" ".out" in
      let cmd =
        Printf.sprintf "%s --model %s %s > %s 2>&1" exe backend
          (deck_path deck) out
      in
      let code = Sys.command cmd in
      let text = read_file out in
      Sys.remove out;
      if code <> 0 then
        Alcotest.failf "cspice --model %s %s exited %d:\n%s" backend deck code
          text;
      Alcotest.(check bool)
        (Printf.sprintf "--model %s %s prints a table" backend deck)
        true
        (String.length text > 0))
    [ ("piecewise", "models_dc"); ("vs", "models_dc"); ("vs", "models_tran") ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let per_backend name f =
    List.map
      (fun b -> tc (Printf.sprintf "%s (%s)" name b) (f b))
      backends_under_test
  in
  Alcotest.run "cnt_models"
    [
      ( "registry",
        [
          tc "backends registered" test_registry;
          tc "deck model= dispatch" test_deck_model_dispatch;
          tc "memoised construction" test_memoised_construction;
          tc "identity strings" test_identity;
          tc "remodel" test_remodel;
          tc "circuit remodel no-op" test_circuit_remodel_noop;
        ] );
      ( "invariants",
        per_backend "stencil = scalar bitwise" test_stencil_matches_scalar
        @ per_backend "ids monotone in vds" test_monotone_ids
        @ per_backend "id() cells = ids bitwise" test_print_id_matches_ids );
      ( "jacobians",
        [
          QCheck_alcotest.to_alcotest prop_jacobian_matches_fd;
          tc "piece boundaries (C1 seams)" test_jacobian_piece_boundaries;
          tc "vs swap and clamp" test_jacobian_vs_seams;
          tc "denominator bounded away from zero" test_jacobian_denominator;
        ] );
      ( "override",
        [
          tc "matching override is a no-op" test_override_matching_is_noop;
          tc "override = per-card attr" test_override_equals_deck_attr;
          tc "override changes the physics" test_override_changes_result;
          tc "unknown override" test_override_unknown;
          tc "ambient default override" test_default_override;
        ] );
      ( "cache identity",
        [
          tc "deck cache is model-keyed" test_deck_cache_model_keyed;
        ] );
      ( "golden",
        [
          tc "dc csv (piecewise)" (test_golden_csv "piecewise" "models_dc");
          tc "dc csv (vs)" (test_golden_csv "vs" "models_dc");
          tc "dc csv (vs) within 2e-8 of the FD-Jacobian bytes"
            test_vs_golden_near_fd;
          tc "tran csv (piecewise)" (test_golden_csv "piecewise" "models_tran");
          tc "tran csv (vs)" (test_golden_csv "vs" "models_tran");
          tc "cspice --model" test_cspice_model_flag;
        ] );
    ]
