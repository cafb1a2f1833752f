(* Tests for the SPICE substrate: waveforms, netlist validation, MNA
   assembly, DC and transient analyses, the netlist parser, and the
   analysis engine, including circuits with CNFET devices. *)

open Cnt_numerics
open Cnt_spice

(* This suite pins values computed from each deck's declared model, so
   a CNT_MODEL override from the environment (the CI model matrix) must
   not rewrite the devices under test. *)
let () = Cnt_core.Device_model.set_default_override None

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Special.approx_equal ~atol:eps ~rtol:eps expected actual) then
    Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

(* run a deck through the result API, failing the test on any engine
   error *)
let run_deck_ok ?config deck =
  match Engine.run_deck_result ?config deck with
  | Ok tables -> tables
  | Error e ->
      Alcotest.failf "engine error (%s): %s" (Diag.error_kind e)
        (Diag.error_message e)

(* ------------------------------------------------------------------ *)
(* Waveforms                                                           *)
(* ------------------------------------------------------------------ *)

let test_dc_wave () =
  check_close "constant" 1.5 (Waveform.eval (Waveform.dc 1.5) 42.0)

let test_pulse_wave () =
  let w =
    Waveform.pulse ~delay:1.0 ~rise:0.5 ~fall:0.5 ~v1:0.0 ~v2:2.0 ~width:2.0
      ~period:10.0 ()
  in
  check_close "before delay" 0.0 (Waveform.eval w 0.5);
  check_close "mid rise" 1.0 (Waveform.eval w 1.25);
  check_close "plateau" 2.0 (Waveform.eval w 2.0);
  check_close "mid fall" 1.0 (Waveform.eval w 3.75);
  check_close "after" 0.0 (Waveform.eval w 5.0);
  (* periodicity *)
  check_close "next period plateau" 2.0 (Waveform.eval w 12.0)

let test_sin_wave () =
  let w = Waveform.sin_wave ~offset:1.0 ~amplitude:2.0 ~freq:1.0 () in
  check_close "at zero" 1.0 (Waveform.eval w 0.0);
  check_close ~eps:1e-12 "quarter period" 3.0 (Waveform.eval w 0.25)

let test_pwl_wave () =
  let w = Waveform.pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 2.0); (4.0, 0.0) ] in
  check_close "interp" 1.0 (Waveform.eval w 0.5);
  check_close "plateau" 2.0 (Waveform.eval w 2.0);
  check_close "hold after end" 0.0 (Waveform.eval w 9.0);
  Alcotest.(check bool) "rejects descending times" true
    (match Waveform.pwl [ (1.0, 0.0); (0.0, 1.0) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Circuit construction                                                *)
(* ------------------------------------------------------------------ *)

let test_circuit_validation () =
  Alcotest.(check bool) "duplicate names" true
    (match
       Circuit.create
         [ Circuit.resistor "r1" "a" "0" 1.0; Circuit.resistor "R1" "b" "0" 1.0 ]
     with
    | exception Circuit.Bad_circuit _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative resistance" true
    (match Circuit.create [ Circuit.resistor "r1" "a" "0" (-5.0) ] with
    | exception Circuit.Bad_circuit _ -> true
    | _ -> false);
  Alcotest.(check bool) "floating circuit" true
    (match Circuit.create [ Circuit.resistor "r1" "a" "b" 5.0 ] with
    | exception Circuit.Bad_circuit _ -> true
    | _ -> false)

let test_circuit_nodes () =
  let c =
    Circuit.create
      [
        Circuit.vdc "v1" "IN" "0" 1.0;
        Circuit.resistor "r1" "in" "OUT" 1.0;
        Circuit.resistor "r2" "out" "gnd" 1.0;
      ]
  in
  Alcotest.(check (list string)) "nodes lowercased, ground excluded"
    [ "in"; "out" ] (Circuit.nodes c)

let test_circuit_find () =
  let c = Circuit.create [ Circuit.resistor "R1" "a" "0" 1.0 ] in
  Alcotest.(check bool) "case-insensitive find" true (Circuit.find c "r1" <> None);
  Alcotest.(check bool) "missing" true (Circuit.find c "r2" = None)

let test_ground_aliases () =
  Alcotest.(check bool) "0" true (Circuit.is_ground "0");
  Alcotest.(check bool) "gnd" true (Circuit.is_ground "GND");
  Alcotest.(check bool) "other" false (Circuit.is_ground "out")

(* ------------------------------------------------------------------ *)
(* DC analysis on linear circuits (hand-solvable)                      *)
(* ------------------------------------------------------------------ *)

let test_voltage_divider () =
  let c =
    Circuit.create
      [
        Circuit.vdc "v1" "in" "0" 9.0;
        Circuit.resistor "r1" "in" "out" 2000.0;
        Circuit.resistor "r2" "out" "0" 1000.0;
      ]
  in
  let r = Dc.operating_point c in
  check_close ~eps:1e-9 "divider" 3.0 (Dc.voltage r "out");
  (* 3 mA flows into the + terminal of v1? current convention: into +
     through source: the source drives 3mA out of +, so i(v1) = -3mA *)
  check_close ~eps:1e-9 "source current" (-0.003) (Dc.current r "v1")

let test_current_source_into_resistor () =
  let c =
    Circuit.create
      [
        Circuit.isource "i1" "0" "out" (Waveform.dc 0.002);
        Circuit.resistor "r1" "out" "0" 500.0;
      ]
  in
  let r = Dc.operating_point c in
  (* 2 mA into node out through 500 ohm -> 1 V *)
  check_close ~eps:1e-9 "ohm's law" 1.0 (Dc.voltage r "out")

let test_wheatstone_bridge () =
  (* balanced bridge: zero differential voltage *)
  let c =
    Circuit.create
      [
        Circuit.vdc "v1" "top" "0" 10.0;
        Circuit.resistor "ra" "top" "left" 1000.0;
        Circuit.resistor "rb" "top" "right" 2000.0;
        Circuit.resistor "rc" "left" "0" 1000.0;
        Circuit.resistor "rd" "right" "0" 2000.0;
      ]
  in
  let r = Dc.operating_point c in
  (* gmin (1e-12 S to ground) perturbs the balance at the nV level *)
  check_close ~eps:1e-7 "balanced" 0.0 (Dc.voltage r "left" -. Dc.voltage r "right");
  check_close ~eps:1e-7 "half rail" 5.0 (Dc.voltage r "left")

let test_two_sources_superposition () =
  let c =
    Circuit.create
      [
        Circuit.vdc "v1" "a" "0" 5.0;
        Circuit.vdc "v2" "b" "0" 3.0;
        Circuit.resistor "r1" "a" "m" 1000.0;
        Circuit.resistor "r2" "b" "m" 1000.0;
        Circuit.resistor "r3" "m" "0" 1000.0;
      ]
  in
  let r = Dc.operating_point c in
  (* v(m) = (5/1k + 3/1k) / (3/1k) = 8/3 *)
  check_close ~eps:1e-9 "middle node" (8.0 /. 3.0) (Dc.voltage r "m")

let test_capacitor_open_at_dc () =
  let c =
    Circuit.create
      [
        Circuit.vdc "v1" "in" "0" 2.0;
        Circuit.resistor "r1" "in" "out" 1000.0;
        Circuit.capacitor "c1" "out" "0" 1e-9;
      ]
  in
  let r = Dc.operating_point c in
  (* no DC path through the cap: out floats to the source value *)
  check_close ~eps:1e-6 "no drop" 2.0 (Dc.voltage r "out")

let test_dc_sweep_linear () =
  let c =
    Circuit.create
      [
        Circuit.vdc "vin" "in" "0" 0.0;
        Circuit.resistor "r1" "in" "out" 1000.0;
        Circuit.resistor "r2" "out" "0" 3000.0;
      ]
  in
  let s = Dc.sweep c ~source:"vin" ~start:0.0 ~stop:4.0 ~step:1.0 in
  let vout = Dc.sweep_voltage s "out" in
  Alcotest.(check int) "points" 5 (Array.length vout);
  Array.iteri
    (fun i v -> check_close ~eps:1e-7 "3/4 divider" (0.75 *. s.Dc.sweep_values.(i)) v)
    vout;
  Array.iteri (fun i v -> check_close "value" (float_of_int i) v) s.Dc.sweep_values

let test_dc_sweep_missing_source () =
  let c = Circuit.create [ Circuit.vdc "v1" "a" "0" 1.0; Circuit.resistor "r" "a" "0" 1.0 ] in
  Alcotest.(check bool) "raises" true
    (match Dc.sweep c ~source:"nope" ~start:0.0 ~stop:1.0 ~step:0.5 with
    | exception Dc.Analysis_error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* CNFET circuits                                                      *)
(* ------------------------------------------------------------------ *)

let n_model = lazy (Cnt_core.Cnt_model.model2 ())
let p_model = lazy (Cnt_core.Cnt_model.model2 ~polarity:Cnt_core.Cnt_model.P_type ())

let test_cnfet_drain_current_in_circuit () =
  (* common-source device with ideal sources: the branch current of the
     drain supply equals -IDS of the standalone model *)
  let m = Lazy.force n_model in
  let c =
    Circuit.create
      [
        Circuit.vdc "vg" "g" "0" 0.5;
        Circuit.vdc "vd" "d" "0" 0.4;
        Circuit.cnfet "m1" ~drain:"d" ~gate:"g" ~source:"0" m;
      ]
  in
  let r = Dc.operating_point c in
  let ids = Cnt_core.Cnt_model.ids m ~vgs:0.5 ~vds:0.4 in
  check_close ~eps:1e-12 "drain supply sources IDS" (-.ids) (Dc.current r "vd");
  (* only the gmin leakage flows into the gate *)
  check_close ~eps:1e-11 "gate draws nothing" 0.0 (Dc.current r "vg")

let test_cnfet_with_drain_resistor () =
  (* nonlinear solve: device in series with a load resistor; KCL at the
     drain node must balance *)
  let m = Lazy.force n_model in
  let rload = 50e3 in
  let vdd = 0.6 in
  let c =
    Circuit.create
      [
        Circuit.vdc "vdd" "vdd" "0" vdd;
        Circuit.vdc "vg" "g" "0" 0.5;
        Circuit.resistor "rl" "vdd" "d" rload;
        Circuit.cnfet "m1" ~drain:"d" ~gate:"g" ~source:"0" m;
      ]
  in
  let r = Dc.operating_point c in
  let vd = Dc.voltage r "d" in
  Alcotest.(check bool) "drain below rail" true (vd < vdd && vd > 0.0);
  let i_resistor = (vdd -. vd) /. rload in
  let i_device = Cnt_core.Cnt_model.ids m ~vgs:0.5 ~vds:vd in
  check_close ~eps:1e-9 "KCL at drain" i_resistor i_device

let test_inverter_rails () =
  let c =
    Circuit.create
      [
        Circuit.vdc "vdd" "vdd" "0" 0.6;
        Circuit.vdc "vin" "in" "0" 0.0;
        Circuit.cnfet "mn" ~drain:"out" ~gate:"in" ~source:"0" (Lazy.force n_model);
        Circuit.cnfet "mp" ~drain:"out" ~gate:"in" ~source:"vdd" (Lazy.force p_model);
      ]
  in
  let low_in = Dc.operating_point c in
  check_close ~eps:1e-4 "output high" 0.6 (Dc.voltage low_in "out");
  let high = Dc.set_vsource c "vin" 0.6 in
  let high_in = Dc.operating_point high in
  check_close ~eps:1e-4 "output low" 0.0 (Dc.voltage high_in "out")

let test_inverter_vtc_monotone () =
  let c =
    Circuit.create
      [
        Circuit.vdc "vdd" "vdd" "0" 0.6;
        Circuit.vdc "vin" "in" "0" 0.0;
        Circuit.cnfet "mn" ~drain:"out" ~gate:"in" ~source:"0" (Lazy.force n_model);
        Circuit.cnfet "mp" ~drain:"out" ~gate:"in" ~source:"vdd" (Lazy.force p_model);
      ]
  in
  let s = Dc.sweep c ~source:"vin" ~start:0.0 ~stop:0.6 ~step:0.02 in
  let vout = Dc.sweep_voltage s "out" in
  for i = 0 to Array.length vout - 2 do
    Alcotest.(check bool) "non-increasing" true (vout.(i + 1) <= vout.(i) +. 1e-9)
  done

(* ------------------------------------------------------------------ *)
(* Transient analysis                                                  *)
(* ------------------------------------------------------------------ *)

let rc_circuit () =
  Circuit.create
    [
      Circuit.vsource "vs" "in" "0"
        (Waveform.pulse ~v1:0.0 ~v2:1.0 ~rise:1e-9 ~fall:1e-9 ~width:1.0
           ~period:2.0 ());
      Circuit.resistor "r1" "in" "out" 1000.0;
      Circuit.capacitor "c1" "out" "0" 1e-6;
    ]

let test_rc_step_response () =
  (* tau = 1 ms; at t = tau the output is 1 - e^-1 *)
  let r = Transient.run ~method_:Transient.Trapezoidal (rc_circuit ()) ~tstep:10e-6 ~tstop:3e-3 in
  let v = Transient.voltage r "out" in
  let t = r.Transient.times in
  (* find index closest to 1 ms *)
  let idx = ref 0 in
  Array.iteri (fun i ti -> if Float.abs (ti -. 1e-3) < Float.abs (t.(!idx) -. 1e-3) then idx := i) t;
  check_close ~eps:2e-3 "1 - 1/e at tau" (1.0 -. exp (-1.0)) v.(!idx)

let test_rc_backward_euler_matches () =
  let r_tr = Transient.run ~method_:Transient.Trapezoidal (rc_circuit ()) ~tstep:5e-6 ~tstop:2e-3 in
  let r_be = Transient.run ~method_:Transient.Backward_euler (rc_circuit ()) ~tstep:5e-6 ~tstop:2e-3 in
  let v_tr = Transient.voltage r_tr "out" in
  let v_be = Transient.voltage r_be "out" in
  let last a = a.(Array.length a - 1) in
  check_close ~eps:1e-2 "methods agree at the end" (last v_tr) (last v_be)

let test_transient_starts_from_dc () =
  (* source starts at 1 V DC: the cap is charged at t = 0, nothing moves *)
  let c =
    Circuit.create
      [
        Circuit.vdc "vs" "in" "0" 1.0;
        Circuit.resistor "r1" "in" "out" 1000.0;
        Circuit.capacitor "c1" "out" "0" 1e-6;
      ]
  in
  let r = Transient.run c ~tstep:50e-6 ~tstop:1e-3 in
  let v = Transient.voltage r "out" in
  Array.iter (fun x -> check_close ~eps:1e-6 "steady" 1.0 x) v

let test_crossing_times () =
  let r = Transient.run (rc_circuit ()) ~tstep:10e-6 ~tstop:3e-3 in
  let crossings = Transient.crossing_times ~rising:true r "out" 0.5 in
  Alcotest.(check int) "one rising crossing" 1 (Array.length crossings);
  (* v = 0.5 at t = tau ln 2 = 0.693 ms *)
  check_close ~eps:3e-5 "ln 2 tau" (1e-3 *. log 2.0) crossings.(0)

let test_transient_validation () =
  Alcotest.(check bool) "bad steps" true
    (match Transient.run (rc_circuit ()) ~tstep:0.0 ~tstop:1.0 with
    | exception Transient.Analysis_error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_number_suffixes () =
  let n s =
    match Parser.eval_expr s with
    | Ok v -> v
    | Error msg -> Alcotest.failf "eval_expr %S: %s" s msg
  in
  check_close "kilo" 1000.0 (n "1k");
  check_close "milli" 1e-3 (n "1m");
  check_close "mega" 1e6 (n "1meg");
  check_close "micro" 1.5e-6 (n "1.5u");
  check_close "nano" 2e-9 (n "2n");
  check_close "pico" 3e-12 (n "3p");
  check_close "femto" 4e-15 (n "4f");
  check_close "giga" 1e9 (n "1g");
  check_close "tera" 1e12 (n "1t");
  check_close "exponent" 2.5e3 (n "2.5e3");
  check_close "negative" (-0.5) (n "-0.5");
  Alcotest.(check bool) "garbage rejected" true
    (match Parser.eval_expr "abc" with Error _ -> true | Ok _ -> false)

let test_parse_divider_deck () =
  let deck = Parser.parse "divider\nV1 in 0 DC 2.0\nR1 in out 1k\nR2 out 0 1k\n.op\n.end\n" in
  Alcotest.(check string) "title" "divider" deck.Parser.title;
  Alcotest.(check int) "analyses" 1 (List.length deck.Parser.analyses);
  Alcotest.(check int) "elements" 3 (List.length (Circuit.elements deck.Parser.circuit))

let test_parse_continuation_and_comments () =
  let deck =
    Parser.parse
      "test\n* a comment\nV1 in 0 $ trailing comment\n+ DC 5\nR1 in 0 1k\n.op\n.end\n"
  in
  match Circuit.find deck.Parser.circuit "v1" with
  | Some (Circuit.Vsource { wave; _ }) -> check_close "joined value" 5.0 (Waveform.dc_value wave)
  | _ -> Alcotest.fail "v1 not parsed"

let test_parse_pulse_source () =
  let deck =
    Parser.parse "t\nV1 in 0 PULSE(0 1 1n 0.1n 0.1n 2n 4n)\nR1 in 0 1k\n.tran 0.1n 8n\n.end"
  in
  (match Circuit.find deck.Parser.circuit "v1" with
  | Some (Circuit.Vsource { wave = Waveform.Pulse { v2; period; _ }; _ }) ->
      check_close "v2" 1.0 v2;
      check_close "period" 4e-9 period
  | _ -> Alcotest.fail "pulse not parsed");
  match deck.Parser.analyses with
  | [ Parser.Tran { tstep; tstop } ] ->
      check_close "tstep" 1e-10 tstep;
      check_close "tstop" 8e-9 tstop
  | _ -> Alcotest.fail "tran not parsed"

let test_parse_sin_pwl () =
  let deck =
    Parser.parse
      "t\nV1 a 0 SIN(0 1 1meg)\nV2 b 0 PWL(0 0 1u 1 2u 0)\nR1 a 0 1k\nR2 b 0 1k\n.op\n.end"
  in
  (match Circuit.find deck.Parser.circuit "v1" with
  | Some (Circuit.Vsource { wave = Waveform.Sin { freq; _ }; _ }) -> check_close "freq" 1e6 freq
  | _ -> Alcotest.fail "sin not parsed");
  match Circuit.find deck.Parser.circuit "v2" with
  | Some (Circuit.Vsource { wave = Waveform.Pwl pts; _ }) ->
      Alcotest.(check int) "points" 3 (List.length pts)
  | _ -> Alcotest.fail "pwl not parsed"

let test_parse_cnfet_card () =
  let deck =
    Parser.parse "t\nVD d 0 0.4\nVG g 0 0.5\nM1 d g 0 CNFET model=2 temp=300\n.op\n.end"
  in
  match Circuit.find deck.Parser.circuit "m1" with
  | Some (Circuit.Cnfet { drain; gate; source; _ }) ->
      Alcotest.(check string) "drain" "d" drain;
      Alcotest.(check string) "gate" "g" gate;
      Alcotest.(check string) "source" "0" source
  | _ -> Alcotest.fail "cnfet not parsed"

let test_parse_errors () =
  Alcotest.(check bool) "unknown card" true
    (match Parser.parse "t\nXFOO a b c d\n.end" with
    | exception Parser.Parse_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad directive" true
    (match Parser.parse "t\nR1 a 0 1k\n.bogus\n.end" with
    | exception Parser.Parse_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "cards after .end ignored" true
    (match Parser.parse "t\nR1 a 0 1k\n.op\n.end\nGARBAGE LINE HERE\n" with
    | _ -> true
    | exception Parser.Parse_error _ -> false)

let test_parse_dc_directive () =
  let deck = Parser.parse "t\nV1 in 0 0\nR1 in 0 1k\n.dc V1 0 1 0.1\n.print v(in) i(V1)\n.end" in
  (match deck.Parser.analyses with
  | [ Parser.Dc_sweep { source; start; stop; step } ] ->
      Alcotest.(check string) "source" "v1" source;
      check_close "start" 0.0 start;
      check_close "stop" 1.0 stop;
      check_close "step" 0.1 step
  | _ -> Alcotest.fail "dc not parsed");
  Alcotest.(check int) "print items" 2 (List.length deck.Parser.prints)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_op () =
  let deck = Parser.parse "t\nV1 in 0 2\nR1 in out 1k\nR2 out 0 1k\n.op\n.print v(out)\n.end" in
  match run_deck_ok deck with
  | [ t ] ->
      Alcotest.(check int) "one row" 1 (Array.length t.Engine.rows);
      check_close "half" 1.0 t.Engine.rows.(0).(0)
  | _ -> Alcotest.fail "expected one table"

let test_engine_dc_sweep () =
  let deck = Parser.parse "t\nV1 in 0 0\nR1 in out 2k\nR2 out 0 2k\n.dc V1 0 2 0.5\n.print v(out)\n.end" in
  match run_deck_ok deck with
  | [ t ] ->
      Alcotest.(check int) "rows" 5 (Array.length t.Engine.rows);
      check_close "last point" 1.0 t.Engine.rows.(4).(1)
  | _ -> Alcotest.fail "expected one table"

let test_engine_default_prints () =
  (* no .print: all node voltages are reported *)
  let deck = Parser.parse "t\nV1 in 0 1\nR1 in out 1k\nR2 out 0 1k\n.op\n.end" in
  match run_deck_ok deck with
  | [ t ] -> Alcotest.(check int) "two columns" 2 (Array.length t.Engine.columns)
  | _ -> Alcotest.fail "expected one table"

let test_engine_csv () =
  let deck = Parser.parse "t\nV1 in 0 1\nR1 in 0 1k\n.op\n.print v(in)\n.end" in
  match run_deck_ok deck with
  | [ t ] ->
      let csv = Engine.table_to_csv t in
      Alcotest.(check bool) "has header" true
        (String.length csv > 0 && String.sub csv 0 5 = "v(in)")
  | _ -> Alcotest.fail "expected one table"

(* property: random RC ladders have strictly decreasing DC node
   voltages along the ladder *)
let prop_rc_ladder_monotone =
  QCheck2.Test.make ~name:"resistor ladder voltages decrease monotonically" ~count:30
    QCheck2.Gen.(list_size (int_range 2 8) (float_range 100.0 10000.0))
    (fun resistors ->
      let n = List.length resistors in
      let elements =
        Circuit.vdc "v1" "n0" "0" 5.0
        :: List.mapi
             (fun i r ->
               Circuit.resistor
                 (Printf.sprintf "r%d" i)
                 (Printf.sprintf "n%d" i)
                 (if i = n - 1 then "0" else Printf.sprintf "n%d" (i + 1))
                 r)
             resistors
      in
      let r = Dc.operating_point (Circuit.create elements) in
      let vs = List.init n (fun i -> Dc.voltage r (Printf.sprintf "n%d" i)) in
      let rec decreasing = function
        | a :: (b :: _ as rest) -> a > b -. 1e-12 && decreasing rest
        | _ -> true
      in
      decreasing vs)

(* property: parser round-trips numeric suffixes through formatting *)
let prop_number_roundtrip =
  QCheck2.Test.make ~name:"parser numbers round-trip plain floats" ~count:100
    QCheck2.Gen.(float_range (-1e6) 1e6)
    (fun x ->
      let parsed =
        match Parser.eval_expr (Printf.sprintf "%.9g" x) with
        | Ok v -> v
        | Error msg -> QCheck2.Test.fail_reportf "eval_expr: %s" msg
      in
      (* %.9g itself only carries ~9 significant digits *)
      Special.approx_equal ~atol:1e-8 ~rtol:1e-8 x parsed)


(* ------------------------------------------------------------------ *)
(* AC analysis                                                         *)
(* ------------------------------------------------------------------ *)

let rc_lowpass () =
  Circuit.create
    [
      Circuit.vsource ~ac:1.0 "vs" "in" "0" (Waveform.dc 0.0);
      Circuit.resistor "r1" "in" "out" 1000.0;
      Circuit.capacitor "c1" "out" "0" 1e-6;
    ]

let test_ac_rc_corner () =
  (* corner at 1/(2 pi RC) = 159.15 Hz *)
  let freqs = Ac.decade_frequencies ~start:1.0 ~stop:1e5 ~per_decade:20 in
  let r = Ac.run (rc_lowpass ()) ~freqs in
  match Ac.corner_frequency r "out" with
  | Some f -> check_close ~eps:2e-3 "corner" (1.0 /. (2.0 *. Float.pi *. 1e-3)) f
  | None -> Alcotest.fail "no corner found"

let test_ac_rc_magnitude_phase () =
  let fc = 1.0 /. (2.0 *. Float.pi *. 1e-3) in
  let r = Ac.run (rc_lowpass ()) ~freqs:[| fc |] in
  let v = (Ac.voltage r "out").(0) in
  (* at the corner: |H| = 1/sqrt(2), phase = -45 degrees *)
  check_close ~eps:1e-6 "magnitude" (1.0 /. sqrt 2.0) (Complex.norm v);
  check_close ~eps:1e-4 "phase" (-45.0) (Complex.arg v *. 180.0 /. Float.pi)

let test_ac_rolloff_slope () =
  (* first-order low-pass: -20 dB per decade well above the corner *)
  let r = Ac.run (rc_lowpass ()) ~freqs:[| 1e4; 1e5 |] in
  let mags = Ac.magnitude_db (Ac.voltage r "out") in
  check_close ~eps:0.1 "slope" (-20.0) (mags.(1) -. mags.(0))

let test_ac_divider_flat () =
  (* purely resistive divider: flat response, zero phase *)
  let c =
    Circuit.create
      [
        Circuit.vsource ~ac:2.0 "vs" "in" "0" (Waveform.dc 0.0);
        Circuit.resistor "r1" "in" "out" 1000.0;
        Circuit.resistor "r2" "out" "0" 1000.0;
      ]
  in
  let r = Ac.run c ~freqs:[| 1.0; 1e6 |] in
  Array.iter
    (fun v ->
      check_close ~eps:1e-9 "half the ac magnitude" 1.0 (Complex.norm v);
      check_close ~eps:1e-9 "in phase" 0.0 v.Complex.im)
    (Ac.voltage r "out")

let test_ac_cs_amplifier_gain () =
  (* gain of a common-source stage must equal gm * (RL || ro) *)
  let m = Lazy.force n_model in
  let rl = 50e3 in
  let c =
    Circuit.create
      [
        Circuit.vdc "vdd" "vdd" "0" 0.6;
        Circuit.vsource ~ac:1.0 "vin" "g" "0" (Waveform.dc 0.45);
        Circuit.resistor "rl" "vdd" "d" rl;
        Circuit.cnfet "m1" ~drain:"d" ~gate:"g" ~source:"0" m;
      ]
  in
  let r = Ac.run c ~freqs:[| 1e3 |] in
  let vd = Dc.voltage r.Ac.op "d" in
  let gm = Cnt_core.Cnt_model.gm m ~vgs:0.45 ~vds:vd in
  let gds = Cnt_core.Cnt_model.gds m ~vgs:0.45 ~vds:vd in
  let expected = gm /. ((1.0 /. rl) +. gds) in
  check_close ~eps:1e-3 "gm*(RL||ro)" expected (Complex.norm (Ac.voltage r "d").(0))

let test_ac_parser_and_engine () =
  let deck =
    Parser.parse
      "t\nVS in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1u\n.ac dec 10 1 100k\n.print v(out)\n.end"
  in
  (match deck.Parser.analyses with
  | [ Parser.Ac_sweep { per_decade; fstart; fstop } ] ->
      Alcotest.(check int) "per decade" 10 per_decade;
      check_close "fstart" 1.0 fstart;
      check_close "fstop" 1e5 fstop
  | _ -> Alcotest.fail "ac not parsed");
  match run_deck_ok deck with
  | [ t ] ->
      Alcotest.(check int) "columns: freq + mag + phase" 3 (Array.length t.Engine.columns);
      Alcotest.(check int) "51 points" 51 (Array.length t.Engine.rows);
      (* DC-adjacent magnitude ~ 0 dB, final strongly attenuated *)
      Alcotest.(check bool) "attenuates" true
        (t.Engine.rows.(50).(1) < t.Engine.rows.(0).(1) -. 40.0)
  | _ -> Alcotest.fail "expected one table"

let test_ac_validation () =
  Alcotest.(check bool) "empty freqs" true
    (match Ac.run (rc_lowpass ()) ~freqs:[||] with
    | exception Ac.Analysis_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad decade range" true
    (match Ac.decade_frequencies ~start:10.0 ~stop:1.0 ~per_decade:5 with
    | exception Ac.Analysis_error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* CNFET intrinsic capacitances                                        *)
(* ------------------------------------------------------------------ *)

let test_intrinsic_caps_values () =
  let m = Lazy.force n_model in
  let device = Cnt_core.Cnt_model.device m in
  let e = Circuit.cnfet ~length:100e-9 "m1" ~drain:"d" ~gate:"g" ~source:"0" m in
  match e with
  | Circuit.Cnfet { params; _ } -> begin
      match Circuit.cnfet_intrinsic_caps params with
      | Some (cgs, cgd) ->
          let cg = Cnt_physics.Device.c_gate device in
          let cd = Cnt_physics.Device.c_drain device in
          let cs = Cnt_physics.Device.c_source device in
          check_close ~eps:1e-25 "cgs" (((0.5 *. cg) +. cs) *. 100e-9) cgs;
          check_close ~eps:1e-25 "cgd" (((0.5 *. cg) +. cd) *. 100e-9) cgd
      | None -> Alcotest.fail "expected intrinsic caps"
    end
  | _ -> Alcotest.fail "expected cnfet"

let test_intrinsic_caps_zero_length () =
  let m = Lazy.force n_model in
  match Circuit.cnfet "m1" ~drain:"d" ~gate:"g" ~source:"0" m with
  | Circuit.Cnfet { params; _ } ->
      Alcotest.(check bool) "no caps" true (Circuit.cnfet_intrinsic_caps params = None)
  | _ -> Alcotest.fail "expected cnfet"

let test_intrinsic_caps_slow_transient () =
  (* a gate driven through a resistor charges the intrinsic gate
     capacitance with a finite time constant *)
  let m = Lazy.force n_model in
  let c =
    Circuit.create
      [
        Circuit.vsource "vg" "in" "0"
          (Waveform.pulse ~v1:0.0 ~v2:0.6 ~rise:1e-15 ~fall:1e-15 ~width:1e-9
             ~period:2e-9 ());
        Circuit.resistor "rg" "in" "g" 1e6;
        Circuit.vdc "vd" "d" "0" 0.3;
        Circuit.cnfet ~length:1e-6 "m1" ~drain:"d" ~gate:"g" ~source:"0" m;
      ]
  in
  let r = Transient.run c ~tstep:2e-12 ~tstop:200e-12 in
  let vg = Transient.voltage r "g" in
  let final = vg.(Array.length vg - 1) in
  (* tau = 1 MOhm * (Cgs + Cgd) ~ 1 MOhm * ~0.2 fF = ~0.2 ns: the gate
     must still be slewing at 0.2 ns *)
  Alcotest.(check bool) "gate still charging" true (final > 0.05 && final < 0.55)

(* ------------------------------------------------------------------ *)
(* Stdcells                                                            *)
(* ------------------------------------------------------------------ *)

let cell_family = lazy (Stdcells.family ())

let test_stdcells_inverter () =
  let f = Lazy.force cell_family in
  let cells = Stdcells.inverter f ~prefix:"u0" ~input:"in" ~output:"out" ~vdd_node:"vdd" in
  let c = Stdcells.bench f ~stimuli:[ Circuit.vdc "vin" "in" "0" 0.0 ] ~cells in
  let r = Dc.operating_point c in
  Alcotest.(check (option bool)) "low in, high out" (Some true)
    (Stdcells.logic_level f (Dc.voltage r "out"))

let test_stdcells_nand_truth_table () =
  let f = Lazy.force cell_family in
  List.iter
    (fun (a, b, expected) ->
      let cells =
        Stdcells.nand2 f ~prefix:"u0" ~input_a:"a" ~input_b:"b" ~output:"out"
          ~vdd_node:"vdd"
      in
      let stimuli =
        [
          Circuit.vdc "va" "a" "0" (if a then f.Stdcells.vdd else 0.0);
          Circuit.vdc "vb" "b" "0" (if b then f.Stdcells.vdd else 0.0);
        ]
      in
      let r = Dc.operating_point (Stdcells.bench f ~stimuli ~cells) in
      Alcotest.(check (option bool))
        (Printf.sprintf "nand %b %b" a b)
        (Some expected)
        (Stdcells.logic_level f (Dc.voltage r "out")))
    [ (false, false, true); (false, true, true); (true, false, true); (true, true, false) ]

let test_stdcells_nor_truth_table () =
  let f = Lazy.force cell_family in
  List.iter
    (fun (a, b, expected) ->
      let cells =
        Stdcells.nor2 f ~prefix:"u0" ~input_a:"a" ~input_b:"b" ~output:"out"
          ~vdd_node:"vdd"
      in
      let stimuli =
        [
          Circuit.vdc "va" "a" "0" (if a then f.Stdcells.vdd else 0.0);
          Circuit.vdc "vb" "b" "0" (if b then f.Stdcells.vdd else 0.0);
        ]
      in
      let r = Dc.operating_point (Stdcells.bench f ~stimuli ~cells) in
      Alcotest.(check (option bool))
        (Printf.sprintf "nor %b %b" a b)
        (Some expected)
        (Stdcells.logic_level f (Dc.voltage r "out")))
    [ (false, false, true); (false, true, false); (true, false, false); (true, true, false) ]

let test_stdcells_chain_parity () =
  let f = Lazy.force cell_family in
  (* an even chain restores the input, an odd chain inverts it *)
  List.iter
    (fun (stages, expected) ->
      let cells, out =
        Stdcells.inverter_chain f ~prefix:"c" ~input:"in" ~stages ~vdd_node:"vdd"
      in
      let r =
        Dc.operating_point
          (Stdcells.bench f ~stimuli:[ Circuit.vdc "vin" "in" "0" 0.0 ] ~cells)
      in
      Alcotest.(check (option bool))
        (Printf.sprintf "%d stages" stages)
        (Some expected)
        (Stdcells.logic_level f (Dc.voltage r out)))
    [ (1, true); (2, false); (3, true); (4, false) ]

let test_stdcells_ring_validation () =
  let f = Lazy.force cell_family in
  Alcotest.(check bool) "even stage count rejected" true
    (match Stdcells.ring_oscillator f ~prefix:"r" ~stages:4 ~vdd_node:"vdd" with
    | exception Invalid_argument _ -> true
    | _ -> false)


(* ------------------------------------------------------------------ *)
(* Subcircuits                                                         *)
(* ------------------------------------------------------------------ *)

let test_subckt_divider () =
  (* a resistor-divider subcircuit instantiated twice in cascade *)
  let deck =
    Parser.parse
      "t\n\
       .subckt half in out\n\
       R1 in out 1k\n\
       R2 out 0 1k\n\
       .ends\n\
       V1 a 0 DC 4\n\
       X1 a b half\n\
       RLOAD b 0 1meg\n\
       .op\n.print v(b)\n.end"
  in
  match run_deck_ok deck with
  | [ t ] -> check_close ~eps:1e-2 "half of 4V" 2.0 t.Engine.rows.(0).(0)
  | _ -> Alcotest.fail "expected one table"

let test_subckt_inverter_chain () =
  let deck =
    Parser.parse
      "t\n\
       .subckt inv in out vdd\n\
       MN1 out in 0 CNFET\n\
       MP1 out in vdd PCNFET\n\
       .ends\n\
       VDD vdd 0 DC 0.6\n\
       VIN a 0 DC 0\n\
       X1 a b vdd INV\n\
       X2 b c vdd INV\n\
       .op\n.print v(b) v(c)\n.end"
  in
  match run_deck_ok deck with
  | [ t ] ->
      check_close ~eps:1e-3 "first stage inverts" 0.6 t.Engine.rows.(0).(0);
      check_close ~eps:1e-3 "second stage restores" 0.0 t.Engine.rows.(0).(1)
  | _ -> Alcotest.fail "expected one table"

let test_subckt_internal_nodes_isolated () =
  (* two instances must not share internal nodes *)
  let deck =
    Parser.parse
      "t\n\
       .subckt cell in out\n\
       R1 in mid 1k\n\
       R2 mid out 1k\n\
       .ends\n\
       V1 a 0 DC 1\n\
       X1 a b cell\n\
       X2 a c cell\n\
       RB b 0 1k\n\
       RC c 0 3k\n\
       .op\n.print v(b) v(c)\n.end"
  in
  match run_deck_ok deck with
  | [ t ] ->
      (* divider ratios differ, so the internal mids must differ *)
      check_close ~eps:1e-6 "x1" (1.0 /. 3.0) t.Engine.rows.(0).(0);
      check_close ~eps:1e-6 "x2" (3.0 /. 5.0) t.Engine.rows.(0).(1)
  | _ -> Alcotest.fail "expected one table"

let test_subckt_errors () =
  Alcotest.(check bool) "unknown subckt" true
    (match Parser.parse "t\nV1 a 0 1\nX1 a b nope\n.op\n.end" with
    | exception Parser.Parse_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "port count mismatch" true
    (match
       Parser.parse
         "t\n.subckt s a b\nR1 a b 1k\n.ends\nV1 x 0 1\nX1 x s\n.op\n.end"
     with
    | exception Parser.Parse_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "missing .ends" true
    (match Parser.parse "t\n.subckt s a b\nR1 a b 1k\n.op\n.end" with
    | exception Parser.Parse_error _ -> true
    | _ -> false)


(* ------------------------------------------------------------------ *)
(* Netlist emission round trip                                         *)
(* ------------------------------------------------------------------ *)

let test_netlist_roundtrip_linear () =
  let c =
    Circuit.create
      [
        Circuit.vsource ~ac:1.0 "v1" "in" "0"
          (Waveform.pulse ~v1:0.0 ~v2:1.0 ~delay:1e-9 ~width:2e-9 ~period:5e-9 ());
        Circuit.resistor "r1" "in" "out" 1234.5;
        Circuit.capacitor "c1" "out" "0" 2.5e-12;
        Circuit.isource "i1" "0" "out" (Waveform.dc 1e-6);
      ]
  in
  let text =
    Netlist.emit ~analyses:[ Parser.Op ] ~prints:[ Parser.Print_v "out" ] c
  in
  let deck = Parser.parse text in
  Alcotest.(check int) "element count" 4
    (List.length (Circuit.elements deck.Parser.circuit));
  Alcotest.(check (list string)) "nodes" (Circuit.nodes c)
    (Circuit.nodes deck.Parser.circuit);
  (* the operating points agree *)
  let r1 = Dc.operating_point c in
  let r2 = Dc.operating_point deck.Parser.circuit in
  check_close ~eps:1e-12 "v(out)" (Dc.voltage r1 "out") (Dc.voltage r2 "out")

let test_netlist_roundtrip_cnfet () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "cnt_netlist_test" in
  let m = Lazy.force n_model in
  let c =
    Circuit.create
      [
        Circuit.vdc "vg" "g" "0" 0.5;
        Circuit.vdc "vd" "d" "0" 0.4;
        Circuit.cnfet ~length:50e-9 "m1" ~drain:"d" ~gate:"g" ~source:"0" m;
      ]
  in
  let text = Netlist.emit ~model_dir:dir c in
  let deck = Parser.parse text in
  let r1 = Dc.operating_point c in
  let r2 = Dc.operating_point deck.Parser.circuit in
  (* exact: the model card round-trips bit-for-bit *)
  check_close ~eps:0.0 "drain current" (Dc.current r1 "vd") (Dc.current r2 "vd")

let test_netlist_requires_model_dir () =
  let m = Lazy.force n_model in
  let c =
    Circuit.create
      [
        Circuit.vdc "vd" "d" "0" 0.4;
        Circuit.cnfet "m1" ~drain:"d" ~gate:"d" ~source:"0" m;
      ]
  in
  Alcotest.(check bool) "raises without model_dir" true
    (match Netlist.emit c with
    | exception Netlist.Emit_error _ -> true
    | _ -> false)

let test_waveform_text_roundtrip () =
  List.iter
    (fun w ->
      let text = Printf.sprintf "t\nV1 a 0 %s\nR1 a 0 1k\n.op\n.end" (Netlist.waveform_text w) in
      match Circuit.find (Parser.parse text).Parser.circuit "v1" with
      | Some (Circuit.Vsource { wave; _ }) ->
          List.iter
            (fun time ->
              check_close ~eps:1e-12
                (Printf.sprintf "value at %g" time)
                (Waveform.eval w time) (Waveform.eval wave time))
            [ 0.0; 0.5e-9; 1.7e-9; 4.2e-9 ]
      | _ -> Alcotest.fail "source not parsed")
    [
      Waveform.dc 2.5;
      Waveform.pulse ~v1:0.1 ~v2:0.9 ~delay:0.5e-9 ~width:1e-9 ~period:3e-9 ();
      Waveform.sin_wave ~offset:0.3 ~amplitude:0.2 ~freq:1e9 ();
      Waveform.pwl [ (0.0, 0.0); (1e-9, 1.0); (2e-9, 0.5) ];
    ]


let test_engine_device_current_print () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "cnt_idprint_test" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir "m.cntm" in
  Cnt_core.Model_io.save path (Lazy.force n_model);
  let deck =
    Parser.parse
      (Printf.sprintf
         "t\nVG g 0 0.5\nVD d 0 0.4\nM1 d g 0 CNFET file=%s\n.op\n.print id(M1) i(VD)\n.end"
         path)
  in
  match run_deck_ok deck with
  | [ t ] ->
      let id_dev = t.Engine.rows.(0).(0) and i_vd = t.Engine.rows.(0).(1) in
      (* the drain supply sinks exactly the device current *)
      check_close ~eps:1e-12 "id = -i(vd)" id_dev (-.i_vd);
      check_close ~eps:1e-9 "matches model" id_dev
        (Cnt_core.Cnt_model.ids (Lazy.force n_model) ~vgs:0.5 ~vds:0.4)
  | _ -> Alcotest.fail "expected one table"


(* ------------------------------------------------------------------ *)
(* Inductors                                                           *)
(* ------------------------------------------------------------------ *)

let test_inductor_dc_short () =
  (* at DC the inductor is a short: full supply current through R *)
  let c =
    Circuit.create
      [
        Circuit.vdc "vs" "in" "0" 2.0;
        Circuit.resistor "r1" "in" "mid" 1000.0;
        Circuit.inductor "l1" "mid" "0" 1e-3;
      ]
  in
  let r = Dc.operating_point c in
  check_close ~eps:1e-7 "node shorted to ground" 0.0 (Dc.voltage r "mid");
  check_close ~eps:1e-9 "supply current" (-2e-3) (Dc.current r "vs")

let test_inductor_rl_step () =
  (* tau = L/R = 1 us; the source current reaches (1 - 1/e)·V/R at tau *)
  let c =
    Circuit.create
      [
        Circuit.vsource "vs" "in" "0"
          (Waveform.pulse ~v1:0.0 ~v2:1.0 ~rise:1e-9 ~fall:1e-9 ~width:1e-3
             ~period:2e-3 ());
        Circuit.resistor "r1" "in" "mid" 1000.0;
        Circuit.inductor "l1" "mid" "0" 1e-3;
      ]
  in
  let r = Transient.run c ~tstep:10e-9 ~tstop:5e-6 in
  let i = Transient.vsource_current r "vs" in
  let t = r.Transient.times in
  let idx = ref 0 in
  Array.iteri
    (fun k tk ->
      if Float.abs (tk -. 1e-6) < Float.abs (t.(!idx) -. 1e-6) then idx := k)
    t;
  check_close ~eps:2e-2 "i at tau" (-.(1.0 -. exp (-1.0)) /. 1000.0) i.(!idx)

let test_inductor_lc_tank_period () =
  (* kick an LC tank and measure its period: T = 2 pi sqrt(LC) *)
  let c =
    Circuit.create
      [
        Circuit.isource "ik" "0" "a"
          (Waveform.pulse ~v1:0.0 ~v2:1e-3 ~rise:1e-9 ~fall:1e-9 ~width:0.2e-6
             ~period:1.0 ());
        Circuit.inductor "l1" "a" "0" 1e-3;
        Circuit.capacitor "c1" "a" "0" 1e-9;
      ]
  in
  let r = Transient.run c ~tstep:20e-9 ~tstop:30e-6 in
  let crossings = Transient.crossing_times ~rising:true r "a" 0.0 in
  let n = Array.length crossings in
  Alcotest.(check bool) "oscillates" true (n >= 3);
  let period = (crossings.(n - 1) -. crossings.(1)) /. float_of_int (n - 2) in
  check_close ~eps:2e-2 "period" (2.0 *. Float.pi *. sqrt (1e-3 *. 1e-9)) period

let test_inductor_rlc_resonance () =
  (* series RLC at resonance: reactances cancel, |i| = Vac / R *)
  let c =
    Circuit.create
      [
        Circuit.vsource ~ac:1.0 "vs" "in" "0" (Waveform.dc 0.0);
        Circuit.resistor "r1" "in" "a" 100.0;
        Circuit.inductor "l1" "a" "b" 1e-3;
        Circuit.capacitor "c1" "b" "0" 1e-9;
      ]
  in
  let f0 = 1.0 /. (2.0 *. Float.pi *. sqrt (1e-3 *. 1e-9)) in
  let r = Ac.run c ~freqs:[| f0; f0 /. 10.0; f0 *. 10.0 |] in
  let i = Ac.vsource_current r "vs" in
  check_close ~eps:1e-6 "resonant current" 0.01 (Complex.norm i.(0));
  (* off resonance the series impedance is larger, the current smaller *)
  Alcotest.(check bool) "below resonance attenuated" true (Complex.norm i.(1) < 0.005);
  Alcotest.(check bool) "above resonance attenuated" true (Complex.norm i.(2) < 0.005)

let test_inductor_parser_and_validation () =
  let deck = Parser.parse "t\nV1 a 0 1\nR1 a b 1k\nL1 b 0 10u\n.op\n.end" in
  Alcotest.(check int) "elements" 3 (List.length (Circuit.elements deck.Parser.circuit));
  Alcotest.(check bool) "negative inductance rejected" true
    (match Circuit.create [ Circuit.inductor "l1" "a" "0" (-1.0) ] with
    | exception Circuit.Bad_circuit _ -> true
    | _ -> false)


(* ------------------------------------------------------------------ *)
(* Linear-solver backends: dense/sparse agreement and telemetry        *)
(* ------------------------------------------------------------------ *)

let check_agree msg a b =
  Alcotest.(check int) (msg ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i va ->
      let vb = b.(i) in
      if Float.abs (va -. vb) > 1e-9 *. Float.max 1.0 (Float.abs va) then
        Alcotest.failf "%s: index %d: %.15g (dense) vs %.15g (sparse)" msg i va vb)
    a

let inverter_circuit vin =
  Circuit.create
    [
      Circuit.vdc "vdd" "vdd" "0" 0.6;
      Circuit.vdc "vin" "in" "0" vin;
      Circuit.cnfet "mn" ~drain:"out" ~gate:"in" ~source:"0" (Lazy.force n_model);
      Circuit.cnfet "mp" ~drain:"out" ~gate:"in" ~source:"vdd" (Lazy.force p_model);
    ]

(* A 1 V source driving [n] series resistors to ground: n + 1 unknowns,
   known solution, any size we like. *)
let ladder_circuit n =
  let node i = if i = 0 then "in" else if i = n then "0" else Printf.sprintf "n%d" i in
  let rs =
    List.init n (fun i ->
        Circuit.resistor (Printf.sprintf "r%d" (i + 1)) (node i) (node (i + 1)) 1000.0)
  in
  Circuit.create (Circuit.vdc "v1" "in" "0" 1.0 :: rs)

(* The three cases below pin the one MNA solver (sparse LU under a
   minimum-degree ordering) against the dense-LU backend it replaced:
   each reference array is that backend's solution, captured once and
   written here, and must be matched to 1e-9 relative. *)
let test_solver_backends_agree_op () =
  let circuits =
    [
      ( "divider",
        Circuit.create
          [
            Circuit.vdc "v1" "in" "0" 9.0;
            Circuit.resistor "r1" "in" "out" 2000.0;
            Circuit.resistor "r2" "out" "0" 1000.0;
          ],
        [|
          9.; 2.9999999980000003; -0.00300000001;
        |] );
      ( "cnfet with drain resistor",
        Circuit.create
          [
            Circuit.vdc "vdd" "vdd" "0" 0.6;
            Circuit.vdc "vg" "g" "0" 0.5;
            Circuit.resistor "rl" "vdd" "d" 50e3;
            Circuit.cnfet "m1" ~drain:"d" ~gate:"g" ~source:"0" (Lazy.force n_model);
          ],
        [|
          0.59999999999999998; 0.5; 0.36981780862260633;
          -4.6036444275478734e-06; -4.9999999999999999e-13;
        |] );
      ( "inverter mid-rail",
        inverter_circuit 0.3,
        [|
          0.59999999999999998; 0.29999999999999999; 0.29999956862728872;
          -4.1079306485384541e-07; -2.9999999999999998e-13;
        |] );
      ( "ladder 40",
        ladder_circuit 40,
        [|
          1.; 0.97499998716250147; 0.9499999753000028;
          0.9249999643875042; 0.89999995440000558; 0.87499994531250691;
          0.8499999371000081; 0.82499992973750913; 0.79999992320001023;
          0.7749999174625114; 0.74999991250001252; 0.72499990828751337;
          0.69999990480001439; 0.67499990201251525; 0.64999989990001594;
          0.62499989843751658; 0.59999989760001715; 0.57499989736251755;
          0.54999989770001789; 0.52499989858751805; 0.49999990000001804;
          0.4749999019125179; 0.44999990430001763; 0.42499990713751723;
          0.3999999104000167; 0.37499991406251609; 0.34999991810001541;
          0.32499992248751469; 0.29999992720001384; 0.27499993221251295;
          0.24999993750001198; 0.22499994303751095; 0.19999994880000985;
          0.17499995476250871; 0.14999996090000753; 0.12499996718750632;
          0.099999973600005107; 0.074999980112503861; 0.049999986700002587;
          0.024999993337501296; -2.5000013837498633e-05;
        |] );
      ( "rlc",
        Circuit.create
          [
            Circuit.vsource "vs" "in" "0" (Waveform.dc 1.0);
            Circuit.resistor "r1" "in" "a" 100.0;
            Circuit.inductor "l1" "a" "b" 1e-3;
            Circuit.capacitor "c1" "b" "0" 1e-9;
          ],
        [|
          1.; 0.99999999979999987; 0.99999999979999987;
          -3.0000008590701322e-12; 9.9999999979999999e-13;
        |] );
    ]
  in
  List.iter
    (fun (label, c, dense) ->
      check_agree label dense (Dc.operating_point c).Dc.solution)
    circuits

let test_solver_backends_agree_sweep () =
  let s =
    Dc.sweep (inverter_circuit 0.0) ~source:"vin" ~start:0.0 ~stop:0.6
      ~step:0.05
  in
  check_agree "sweep values"
    [|
      0.; 0.050000000000000003; 0.10000000000000001;
      0.15000000000000002; 0.20000000000000001; 0.25;
      0.30000000000000004; 0.35000000000000003; 0.40000000000000002;
      0.45000000000000001; 0.5; 0.55000000000000004;
      0.60000000000000009;
    |]
    s.Dc.sweep_values;
  check_agree "vtc"
    [|
      0.59999959817619841; 0.59999748290195665; 0.5999832081927301;
      0.59987927261326413; 0.5990373404382684; 0.59189225849722704;
      0.29999956862728394; 0.0081077098854691818; 0.00096264261754983689;
      0.00012071582103977284; 1.678299660804126e-05; 2.5098721491688073e-06;
      3.9557742721339045e-07;
    |]
    (Dc.sweep_voltage s "out")

let test_solver_backends_agree_transient () =
  let s = Transient.run (rc_circuit ()) ~tstep:10e-6 ~tstop:1e-3 in
  check_agree "times"
    [|
      0.; 1.0000000000000001e-05; 2.0000000000000002e-05;
      3.0000000000000004e-05; 4.0000000000000003e-05; 5.0000000000000002e-05;
      6.0000000000000002e-05; 7.0000000000000007e-05; 8.0000000000000007e-05;
      9.0000000000000006e-05; 0.0001; 0.00011;
      0.00012; 0.00013000000000000002; 0.00014000000000000001;
      0.00015000000000000001; 0.00016000000000000001; 0.00017000000000000001;
      0.00018000000000000001; 0.00019000000000000001; 0.00020000000000000001;
      0.00021000000000000001; 0.00022000000000000001; 0.00023000000000000001;
      0.00024000000000000001; 0.00025000000000000001; 0.00026000000000000003;
      0.00027000000000000006; 0.00028000000000000008; 0.00029000000000000011;
      0.00030000000000000014; 0.00031000000000000016; 0.00032000000000000019;
      0.00033000000000000022; 0.00034000000000000024; 0.00035000000000000027;
      0.00036000000000000029; 0.00037000000000000032; 0.00038000000000000035;
      0.00039000000000000037; 0.0004000000000000004; 0.00041000000000000042;
      0.00042000000000000045; 0.00043000000000000048; 0.0004400000000000005;
      0.00045000000000000053; 0.00046000000000000056; 0.00047000000000000058;
      0.00048000000000000061; 0.00049000000000000063; 0.00050000000000000066;
      0.00051000000000000069; 0.00052000000000000071; 0.00053000000000000074;
      0.00054000000000000077; 0.00055000000000000079; 0.00056000000000000082;
      0.00057000000000000084; 0.00058000000000000087; 0.0005900000000000009;
      0.00060000000000000092; 0.00061000000000000095; 0.00062000000000000098;
      0.000630000000000001; 0.00064000000000000103; 0.00065000000000000105;
      0.00066000000000000108; 0.00067000000000000111; 0.00068000000000000113;
      0.00069000000000000116; 0.00070000000000000119; 0.00071000000000000121;
      0.00072000000000000124; 0.00073000000000000126; 0.00074000000000000129;
      0.00075000000000000132; 0.00076000000000000134; 0.00077000000000000137;
      0.0007800000000000014; 0.00079000000000000142; 0.00080000000000000145;
      0.00081000000000000147; 0.0008200000000000015; 0.00083000000000000153;
      0.00084000000000000155; 0.00085000000000000158; 0.00086000000000000161;
      0.00087000000000000163; 0.00088000000000000166; 0.00089000000000000168;
      0.00090000000000000171; 0.00091000000000000174; 0.00092000000000000176;
      0.00093000000000000179; 0.00094000000000000182; 0.00095000000000000184;
      0.00096000000000000187; 0.00097000000000000189; 0.00098000000000000192;
      0.00099000000000000195; 0.001;
    |]
    s.Transient.times;
  check_agree "v(out)"
    [|
      0.; 0.0049751243780847016; 0.014875869409049775;
      0.024678099563986821; 0.034382795090419485; 0.043990926482164683;
      0.053503454576384446; 0.062921330649672022; 0.072245496513181906;
      0.081476884606813293; 0.090616418092456449; 0.099665010946311222;
      0.10862356805028681; 0.11749298528249233; 0.12627414960682692;
      0.13496793916167821; 0.14357522334773842; 0.15209686291494665;
      0.16053371004856595; 0.16888660845440404; 0.17715639344318587;
      0.18534389201408702; 0.19344992293743546; 0.20147529683659074;
      0.20942081626900824; 0.21728727580649712; 0.22507546211467938;
      0.23278615403165839; 0.24042012264590454; 0.24797813137336619;
      0.25546093603381309; 0.26286928492642025; 0.27020391890459977;
      0.27746557145008799; 0.28465496874629548; 0.29177282975092722;
      0.29881986626788026; 0.30579678301842567; 0.31270427771168263;
      0.31954304111439097; 0.32631375711998983; 0.33301710281700814;
      0.33965374855677594; 0.34622435802046037; 0.3527295882854361;
      0.35917008989099447; 0.36554650690339885; 0.37185947698029337;
      0.37810963143446968; 0.38429759529700031; 0.39042398737974299;
      0.39648942033722367; 0.4024945007279031; 0.40843982907483473;
      0.41432599992571817; 0.42015360191235546; 0.4259232178095157;
      0.43163542459321413; 0.43729079349841127; 0.44288989007613766;
      0.44843327425005014; 0.45392150037242601; 0.45935511727959949;
      0.46473466834684685; 0.47006069154272501; 0.47533371948287001;
      0.48055427948325985; 0.48572289361294735; 0.49084007874626839;
      0.49590634661453065; 0.50092220385718789; 0.50588815207250537;
      0.51080468786772082; 0.51567230290870625; 0.52049148396913614;
      0.52526271297916582; 0.52998646707362562; 0.53466321863973565;
      0.53929343536434549; 0.54387758028070443; 0.54841611181476557;
      0.55290948383103; 0.55735814567793385; 0.56176254223278477;
      0.56612311394625026; 0.57044029688640419; 0.5747145227823347;
      0.57894621906731802; 0.58313580892156325; 0.58728371131453061;
      0.59139034104683041; 0.59545610879170341; 0.5994814211360896;
      0.60346668062128783; 0.60741228578321094; 0.61131863119223995;
      0.61518610749268277; 0.61901510144183924; 0.62280599594867758;
      0.62655917011212658; 0.63027499925898589;
    |]
    (Transient.voltage s "out")

let test_solver_stats_populated () =
  let r = Dc.operating_point (inverter_circuit 0.3) in
  let st = Dc.stats r in
  Alcotest.(check bool) "newton ran" true (st.Mna.newton_iterations > 0);
  Alcotest.(check int) "one solve per iteration" st.Mna.newton_iterations
    st.Mna.linear_solves;
  (* two CNFETs evaluated once per iteration *)
  Alcotest.(check int) "device evals" (2 * st.Mna.newton_iterations)
    st.Mna.device_evals;
  Alcotest.(check bool) "unknowns" true (st.Mna.unknowns = 3 + 2);
  Alcotest.(check bool) "nonzeros positive" true (st.Mna.nonzeros > 0);
  Alcotest.(check bool) "residual small" true
    (Float.abs st.Mna.residual < 1e-6);
  let lin = Dc.operating_point (ladder_circuit 4) in
  Alcotest.(check int) "no device evals in linear circuit" 0
    (Dc.stats lin).Mna.device_evals

let test_sweep_guards () =
  let c = ladder_circuit 2 in
  let bad ~start ~stop ~step =
    match Dc.sweep c ~source:"v1" ~start ~stop ~step with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "zero step rejected" true (bad ~start:0.0 ~stop:1.0 ~step:0.0);
  Alcotest.(check bool) "negative step rejected" true
    (bad ~start:0.0 ~stop:1.0 ~step:(-0.1));
  Alcotest.(check bool) "reversed range rejected" true
    (bad ~start:1.0 ~stop:0.0 ~step:0.1);
  Alcotest.(check bool) "nan step rejected" true
    (bad ~start:0.0 ~stop:1.0 ~step:Float.nan);
  (* a step that does not divide the span truncates instead of
     overshooting stop *)
  let s = Dc.sweep c ~source:"v1" ~start:0.0 ~stop:1.0 ~step:0.4 in
  Alcotest.(check int) "truncated point count" 3 (Array.length s.Dc.sweep_values);
  check_close ~eps:1e-12 "last point" 0.8 s.Dc.sweep_values.(2);
  (* an exactly-dividing step includes the stop value *)
  let s = Dc.sweep c ~source:"v1" ~start:0.0 ~stop:1.0 ~step:0.25 in
  Alcotest.(check int) "inclusive point count" 5 (Array.length s.Dc.sweep_values);
  (* a single-point sweep is fine *)
  let s = Dc.sweep c ~source:"v1" ~start:0.5 ~stop:0.5 ~step:0.1 in
  Alcotest.(check int) "degenerate sweep" 1 (Array.length s.Dc.sweep_values)

let test_solver_singular_circuit () =
  (* two ideal sources in parallel force conflicting branch equations:
     the MNA matrix is singular and Newton reports it *)
  let c =
    Circuit.create
      [
        Circuit.vdc "v1" "a" "0" 1.0;
        Circuit.vdc "v2" "a" "0" 2.0;
        Circuit.resistor "r1" "a" "0" 1000.0;
      ]
  in
  Alcotest.(check bool) "no convergence on singular system" true
    (match Dc.operating_point c with
    | exception Diag.Convergence_failure d ->
        (* every ladder rung must have run and failed on the singular
           factorisation *)
        d.Diag.trail <> []
        && List.for_all
             (fun (a : Diag.attempt) ->
               (not a.succeeded)
               &&
               match a.failure with Some (Diag.Singular _) -> true | _ -> false)
             d.Diag.trail
    | _ -> false)

(* The cspice exit-code contract (docs/CONVERGENCE.md): 0 success,
   2 parse/deck/usage, 3 convergence, 4 internal.  The CLI maps
   Diag.error through Diag.exit_code, so pinning the mapping here pins
   the contract; test_convergence.ml additionally exercises the built
   binary. *)
let test_exit_code_contract () =
  Alcotest.(check int) "parse error" 2
    (Diag.exit_code (Diag.Parse (Diag.located_message "x")));
  Alcotest.(check int) "bad deck" 2 (Diag.exit_code (Diag.Bad_deck "x"));
  Alcotest.(check int) "convergence failure" 3
    (Diag.exit_code (Diag.Convergence (Diag.of_trail ~analysis:"op" [])));
  Alcotest.(check int) "internal error" 4 (Diag.exit_code (Diag.Internal "x"))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cnt_spice"
    [
      ( "waveform",
        [
          tc "dc" test_dc_wave;
          tc "pulse" test_pulse_wave;
          tc "sin" test_sin_wave;
          tc "pwl" test_pwl_wave;
        ] );
      ( "circuit",
        [
          tc "validation" test_circuit_validation;
          tc "node collection" test_circuit_nodes;
          tc "find by name" test_circuit_find;
          tc "ground aliases" test_ground_aliases;
        ] );
      ( "dc",
        [
          tc "voltage divider" test_voltage_divider;
          tc "current source" test_current_source_into_resistor;
          tc "wheatstone bridge" test_wheatstone_bridge;
          tc "two sources" test_two_sources_superposition;
          tc "capacitor open at DC" test_capacitor_open_at_dc;
          tc "dc sweep linear" test_dc_sweep_linear;
          tc "sweep missing source" test_dc_sweep_missing_source;
        ] );
      ( "cnfet",
        [
          tc "drain current in circuit" test_cnfet_drain_current_in_circuit;
          tc "device with load resistor" test_cnfet_with_drain_resistor;
          tc "inverter rails" test_inverter_rails;
          tc "inverter VTC monotone" test_inverter_vtc_monotone;
        ] );
      ( "transient",
        [
          tc "rc step response" test_rc_step_response;
          tc "BE matches TR" test_rc_backward_euler_matches;
          tc "starts from DC op" test_transient_starts_from_dc;
          tc "crossing times" test_crossing_times;
          tc "validation" test_transient_validation;
        ] );
      ( "parser",
        [
          tc "number suffixes" test_number_suffixes;
          tc "divider deck" test_parse_divider_deck;
          tc "continuation and comments" test_parse_continuation_and_comments;
          tc "pulse source" test_parse_pulse_source;
          tc "sin and pwl sources" test_parse_sin_pwl;
          tc "cnfet card" test_parse_cnfet_card;
          tc "parse errors" test_parse_errors;
          tc "dc directive and prints" test_parse_dc_directive;
        ] );
      ( "engine",
        [
          tc "operating point" test_engine_op;
          tc "dc sweep" test_engine_dc_sweep;
          tc "default prints" test_engine_default_prints;
          tc "csv output" test_engine_csv;
          tc "device current print item" test_engine_device_current_print;
        ] );
      ( "subckt",
        [
          tc "divider subcircuit" test_subckt_divider;
          tc "cnfet inverter chain" test_subckt_inverter_chain;
          tc "internal node isolation" test_subckt_internal_nodes_isolated;
          tc "error handling" test_subckt_errors;
        ] );
      ( "ac",
        [
          tc "rc corner frequency" test_ac_rc_corner;
          tc "rc magnitude and phase" test_ac_rc_magnitude_phase;
          tc "first-order rolloff" test_ac_rolloff_slope;
          tc "resistive divider flat" test_ac_divider_flat;
          tc "cs amplifier gain" test_ac_cs_amplifier_gain;
          tc "parser and engine" test_ac_parser_and_engine;
          tc "validation" test_ac_validation;
        ] );
      ( "intrinsic_caps",
        [
          tc "cap values" test_intrinsic_caps_values;
          tc "zero length" test_intrinsic_caps_zero_length;
          tc "gate charging transient" test_intrinsic_caps_slow_transient;
        ] );
      ( "stdcells",
        [
          tc "inverter" test_stdcells_inverter;
          tc "nand truth table" test_stdcells_nand_truth_table;
          tc "nor truth table" test_stdcells_nor_truth_table;
          tc "inverter chain parity" test_stdcells_chain_parity;
          tc "ring validation" test_stdcells_ring_validation;
        ] );
      ( "inductor",
        [
          tc "dc short" test_inductor_dc_short;
          tc "rl step response" test_inductor_rl_step;
          tc "lc tank period" test_inductor_lc_tank_period;
          tc "rlc resonance" test_inductor_rlc_resonance;
          tc "parser and validation" test_inductor_parser_and_validation;
        ] );
      ( "netlist",
        [
          tc "linear round trip" test_netlist_roundtrip_linear;
          tc "cnfet round trip via model card" test_netlist_roundtrip_cnfet;
          tc "model_dir required" test_netlist_requires_model_dir;
          tc "waveform text round trip" test_waveform_text_roundtrip;
        ] );
      ( "solver",
        [
          tc "backends agree at op" test_solver_backends_agree_op;
          tc "backends agree on sweep" test_solver_backends_agree_sweep;
          tc "backends agree on transient" test_solver_backends_agree_transient;
          tc "stats populated" test_solver_stats_populated;
          tc "sweep guards" test_sweep_guards;
          tc "singular circuit" test_solver_singular_circuit;
          tc "exit-code contract" test_exit_code_contract;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_rc_ladder_monotone; prop_number_roundtrip ] );
    ]
