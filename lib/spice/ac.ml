(* AC (small-signal) analysis: linearise every nonlinear device at the
   DC operating point, replace capacitors by their admittance j*w*C,
   and solve one complex MNA system per frequency.  Sources contribute
   their [ac] magnitude (zero phase). *)

open Cnt_numerics
module Obs = Cnt_obs.Obs

exception Analysis_error of string

let c_frequencies = Obs.counter "ac.frequencies"

type result = {
  compiled : Mna.compiled;
  op : Dc.op_result; (* the bias point the circuit was linearised at *)
  freqs : float array; (* Hz *)
  solutions : Complex.t array array; (* one phasor vector per frequency *)
  stats : Mna.stats; (* per-frequency complex solves + the DC bias solve *)
}

let complex x = { Complex.re = x; im = 0.0 }
let j_omega f = { Complex.re = 0.0; im = 2.0 *. Float.pi *. f }

(* Assemble the complex MNA system at frequency [f] around the
   operating-point solution [x_op]. *)
let assemble compiled ~gmin ~x_op f =
  let n = Mna.size compiled in
  let jac = Complex_linalg.Cmat.zero n n in
  let rhs = Complex_linalg.Cvec.zero n in
  let add_j i k v = if i >= 0 && k >= 0 then Complex_linalg.Cmat.add_to jac i k v in
  let add_b i v = if i >= 0 then rhs.(i) <- Complex.add rhs.(i) v in
  let stamp_admittance a b y =
    add_j a a y;
    add_j b b y;
    add_j a b (Complex.neg y);
    add_j b a (Complex.neg y)
  in
  let node = Mna.node_id compiled in
  let v_of name = Mna.voltage compiled x_op name in
  for i = 0 to Mna.node_count compiled - 1 do
    add_j i i (complex gmin)
  done;
  List.iter
    (fun e ->
      match e with
      | Circuit.Resistor { n1; n2; ohms; _ } ->
          stamp_admittance (node n1) (node n2) (complex (1.0 /. ohms))
      | Circuit.Capacitor { n1; n2; farads; _ } ->
          stamp_admittance (node n1) (node n2)
            (Complex.mul (j_omega f) (complex farads))
      | Circuit.Inductor { name; n1; n2; henries } ->
          let a = node n1 and b = node n2 in
          let row = Mna.branch_id compiled name in
          add_j a row Complex.one;
          add_j b row (complex (-1.0));
          (* branch equation: v1 - v2 - jwL * i = 0 *)
          add_j row a Complex.one;
          add_j row b (complex (-1.0));
          add_j row row (Complex.neg (Complex.mul (j_omega f) (complex henries)))
      | Circuit.Vsource { name; npos; nneg; ac; _ } ->
          let p = node npos and m = node nneg in
          let row = Mna.branch_id compiled name in
          add_j p row Complex.one;
          add_j m row (complex (-1.0));
          add_j row p Complex.one;
          add_j row m (complex (-1.0));
          add_b row (complex ac)
      | Circuit.Isource { npos; nneg; ac; _ } ->
          let p = node npos and m = node nneg in
          (* extracted from npos, injected at nneg (SPICE convention) *)
          add_b p (complex (-.ac));
          add_b m (complex ac)
      | Circuit.Cnfet { drain; gate; source; params; _ } ->
          let d = node drain and g = node gate and s = node source in
          let model = params.Circuit.model in
          let vgs = v_of gate -. v_of source in
          let vds = v_of drain -. v_of source in
          let _, gm, gds = Cnt_core.Device_model.small_signal model ~vgs ~vds in
          (* transconductance: current gm * v_gs flowing d -> s *)
          add_j d g (complex gm);
          add_j d s (complex (-.gm));
          add_j s g (complex (-.gm));
          add_j s s (complex gm);
          stamp_admittance d s (complex gds);
          (match Circuit.cnfet_intrinsic_caps params with
          | None -> ()
          | Some (cgs, cgd) ->
              stamp_admittance g s (Complex.mul (j_omega f) (complex cgs));
              stamp_admittance g d (Complex.mul (j_omega f) (complex cgd))))
    (Circuit.elements (Mna.circuit compiled));
  (jac, rhs)

(* Logarithmic frequency grid: [per_decade] points per decade from
   [start] to [stop] inclusive. *)
let decade_frequencies ~start ~stop ~per_decade =
  if start <= 0.0 || stop <= start then
    raise (Analysis_error "ac: need 0 < fstart < fstop");
  if per_decade < 1 then raise (Analysis_error "ac: points per decade >= 1");
  let decades = log10 (stop /. start) in
  let n = max 2 (1 + int_of_float (Float.round (decades *. float_of_int per_decade))) in
  Grid.logspace start stop n

let run ?(gmin = 1e-12) ?tol ?max_iter ?policy circuit ~freqs =
  Obs.span "ac.run" @@ fun () ->
  if Array.length freqs = 0 then raise (Analysis_error "ac: no frequencies");
  Array.iter (fun f -> if f <= 0.0 then raise (Analysis_error "ac: f <= 0")) freqs;
  Obs.incr ~by:(Array.length freqs) c_frequencies;
  let op =
    Dc.operating_point ~gmin ?tol ?max_iter ?policy ~analysis:"ac" circuit
  in
  let compiled = op.Dc.compiled in
  let n = Mna.size compiled in
  let stats =
    Mna.fresh_stats ~backend:"dense-complex" ~unknowns:n ~nonzeros:(n * n)
  in
  let solutions =
    Array.map
      (fun f ->
        let t0 = Unix.gettimeofday () in
        let span_a = Obs.start_span "ac.assemble" in
        let jac, rhs = assemble compiled ~gmin ~x_op:op.Dc.solution f in
        Obs.end_span span_a;
        let t1 = Unix.gettimeofday () in
        stats.Mna.assemble_s <- stats.Mna.assemble_s +. (t1 -. t0);
        let span_s = Obs.start_span "ac.solve" in
        let x =
          try Complex_linalg.solve jac rhs
          with Complex_linalg.Singular msg ->
            Obs.end_span span_s;
            raise
              (Analysis_error (Printf.sprintf "ac: singular system at %g Hz: %s" f msg))
        in
        Obs.end_span span_s;
        stats.Mna.solve_s <- stats.Mna.solve_s +. (Unix.gettimeofday () -. t1);
        stats.Mna.linear_solves <- stats.Mna.linear_solves + 1;
        x)
      freqs
  in
  (* fold the operating-point solve into this report so an AC table
     carries the same telemetry shape as DC and transient ones *)
  Mna.add_stats ~into:stats (Dc.stats op);
  { compiled; op; freqs; solutions; stats }

(* Node voltage phasor across the sweep. *)
let voltage r name =
  let id = Mna.node_id r.compiled name in
  Array.map (fun x -> if id < 0 then Complex.zero else x.(id)) r.solutions

let vsource_current r vname =
  let id = Mna.branch_id r.compiled vname in
  Array.map (fun x -> x.(id)) r.solutions

let magnitude_db phasors =
  Array.map (fun z -> 20.0 *. log10 (Float.max (Complex.norm z) 1e-300)) phasors

(* -3 dB corner relative to the first sweep point, by log-linear
   interpolation on the magnitude curve; None when the response never
   drops 3 dB below its low-frequency value. *)
let corner_frequency r name =
  let mag = magnitude_db (voltage r name) in
  let target = mag.(0) -. 3.0103 in
  let n = Array.length mag in
  let rec find i =
    if i >= n then None
    else if mag.(i) <= target then begin
      if i = 0 then Some r.freqs.(0)
      else begin
        let f1 = log10 r.freqs.(i - 1) and f2 = log10 r.freqs.(i) in
        let m1 = mag.(i - 1) and m2 = mag.(i) in
        let frac = (m1 -. target) /. (m1 -. m2) in
        Some (Float.pow 10.0 (f1 +. (frac *. (f2 -. f1))))
      end
    end
    else find (i + 1)
  in
  find 0
