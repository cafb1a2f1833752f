(* The four cnt-bench workloads.  Each one builds its inputs from the
   seed, runs one closed-loop operation through the public entry points
   a user reaches (Workloads.model_family, Parser.parse ->
   Engine.run_deck_result -> Engine.pp_table, or Client.run against a
   live Server), and checks the operation's output.

   Every call into a program layer is wrapped in a bench-side Obs span
   (names starting "bench."), so a traced operation can be split into
   layer self times without instrumenting the library itself. *)

open Cnt_spice
module Obs = Cnt_obs.Obs
module Workloads = Cnt_experiments.Workloads
module Stats = Cnt_numerics.Stats
module Prng = Cnt_numerics.Prng

type outcome = {
  tables : Engine.table list;  (** every table the operation produced *)
  model : string option;
      (** backend the operation forced ([cntd_mixed]); [None] means
          each device kept its deck-declared backend *)
  run_s : float option;
      (** daemon-reported run time; [None] for an offline operation *)
  check : unit -> (unit, string) result;
      (** output check, called after the operation's clock stopped *)
}

type instance = {
  clients : int;
      (** closed-loop clients of the untraced timed pass; [op] is safe
          to call from that many domains at once *)
  op : int -> outcome;
      (** operation [i]; its inputs depend only on the seed and [i] *)
  finish : unit -> string list;
      (** checks deferred past the timed phase; one message per failed
          operation *)
  cache_counts : unit -> (int * int) option;
      (** daemon deck-cache (hits, misses) so far, read with a ping *)
  extra : unit -> (string * float) list;
      (** workload-specific per-layer metrics over the operations run
          so far *)
  stop : unit -> unit;
}

type t = {
  name : string;
  trace_ops : int;
      (** operations in the traced pass: a fixed count, so every count
          metric repeats exactly *)
  setup : seed:int -> instance;
}

let config ?model () = Engine.config ~jobs:1 ?model ()
let offline_config = config ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let render tables =
  Obs.span "bench.render" @@ fun () ->
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter (Engine.pp_table fmt) tables;
  Format.pp_print_flush fmt ();
  Buffer.length buf

(* Parse, run and render one deck text offline — the path of
   [cspice deck.cir]. *)
let offline_run text =
  let deck = Obs.span "bench.parse" (fun () -> Parser.parse text) in
  match Obs.span "bench.run" (fun () -> Engine.run_deck_result ~config:offline_config deck) with
  | Error e -> Error (Diag.error_message e)
  | Ok tables ->
      ignore (render tables);
      Ok tables

let offline_outcome tables check = { tables; model = None; run_s = None; check }

let failed_outcome msg =
  offline_outcome [] (fun () -> Error msg)

let offline_instance ?(extra = fun () -> []) op =
  {
    clients = 1;
    op;
    finish = (fun () -> []);
    cache_counts = (fun () -> None);
    extra;
    stop = ignore;
  }

(* Every operation runs the same deck text offline; [check] judges its
   tables. *)
let deck_instance text check =
  offline_instance (fun _ ->
      match offline_run text with
      | Error msg -> failed_outcome msg
      | Ok tables -> offline_outcome tables (fun () -> check tables))

(* ------------------------------------------------------------------ *)
(* table1_family: the paper's Table I                                  *)
(* ------------------------------------------------------------------ *)

(* One operation is 100 loops of each model's 7 x 61 output family,
   the paper's largest loop count.  The FETToy reference family is
   computed once at set-up: it is both the accuracy oracle and the
   numerator of the speed-up. *)
let table1_loops = 100

let mean_rms reference family =
  let errs =
    List.map2
      (fun (_, r) (_, m) -> Stats.relative_rms_error r m)
      reference family
  in
  100.0 *. List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)

let table1_setup ~seed:_ =
  let m = Workloads.condition ~temp:300.0 ~fermi:(-0.32) () in
  let t0 = Unix.gettimeofday () in
  let reference = Workloads.reference_family m in
  let reference_s = Unix.gettimeofday () -. t0 in
  (* summed model time and family count, for the speed-up *)
  let model_s = [| 0.0; 0.0 |] and families = ref 0 in
  let family k model =
    Obs.span "bench.model_family" @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let last = ref [] in
    for _ = 1 to table1_loops do
      last := Workloads.model_family model
    done;
    model_s.(k) <- model_s.(k) +. (Unix.gettimeofday () -. t0);
    !last
  in
  let rms1 = mean_rms reference (Workloads.model_family m.Workloads.model1)
  and rms2 = mean_rms reference (Workloads.model_family m.Workloads.model2) in
  let extra () =
    let per_family k = model_s.(k) /. float_of_int !families in
    [
      ("core.speedup_model1_x", reference_s /. per_family 0);
      ("core.speedup_model2_x", reference_s /. per_family 1);
      ("core.rms_err_model1_pct", rms1);
      ("core.rms_err_model2_pct", rms2);
    ]
  in
  offline_instance ~extra (fun _ ->
      let f1 = family 0 m.Workloads.model1 in
      let f2 = family 1 m.Workloads.model2 in
      families := !families + table1_loops;
      offline_outcome [] (fun () ->
          let e1 = mean_rms reference f1 and e2 = mean_rms reference f2 in
          if e1 < 5.0 && e2 < 2.0 then Ok ()
          else
            Error
              (Printf.sprintf "Table I RMS error model1 %.3f%% model2 %.3f%%" e1 e2)))

(* ------------------------------------------------------------------ *)
(* ring51_tran: 51-stage CNFET ring oscillator transient               *)
(* ------------------------------------------------------------------ *)

let ring51_deck = "cntbench/decks/ring51.cir"
let ring51_ref = "cntbench/ref/ring51_tran.csv"

(* The counts of results/BENCH_assembly.json, which runs the same ring
   built in OCaml: the deck must reproduce that solve exactly. *)
let ring51_newton_iterations = 483
let ring51_device_evals = 49266

let parse_csv text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.tl
  |> List.map (fun l ->
         Array.of_list (List.map float_of_string (String.split_on_char ',' l)))
  |> Array.of_list

let ring51_check reference (tables : Engine.table list) =
  match tables with
  | [ t ] ->
      if t.stats.newton_iterations <> ring51_newton_iterations
         || t.stats.device_evals <> ring51_device_evals
      then
        Error
          (Printf.sprintf "ring51: %d Newton iterations / %d device evals, expected %d / %d"
             t.stats.newton_iterations t.stats.device_evals
             ring51_newton_iterations ring51_device_evals)
      else if Array.length t.rows <> Array.length reference then
        Error (Printf.sprintf "ring51: %d rows, reference has %d"
                 (Array.length t.rows) (Array.length reference))
      else begin
        let worst = ref 0.0 in
        Array.iteri
          (fun i row ->
            Array.iteri
              (fun j v -> worst := Float.max !worst (Float.abs (v -. reference.(i).(j))))
              row)
          t.rows;
        if !worst <= 1e-3 then Ok ()
        else Error (Printf.sprintf "ring51: max |dv| %.3g V against the reference" !worst)
      end
  | ts -> Error (Printf.sprintf "ring51: %d tables, expected 1" (List.length ts))

let ring51_setup ~seed:_ =
  let reference = parse_csv (read_file ring51_ref) in
  deck_instance (read_file ring51_deck) (ring51_check reference)

(* ------------------------------------------------------------------ *)
(* ladder_1000: 1000-instance parameterized R ladder, .op              *)
(* ------------------------------------------------------------------ *)

(* Segment k is a T section: [a] -rs- [mid] -rs- [b] with rp from mid
   to ground.  Chaining 1000 of them gives 2000 interior nodes whose
   nodal equations are tridiagonal in the order m1, n1, m2, n2, ... *)
let ladder_segments = 1000
let ladder_bindings = 8

let ladder_deck ~seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) () in
  let bindings =
    Array.init ladder_bindings (fun _ ->
        let rs = Printf.sprintf "%.4f" (Prng.uniform_range rng ~lo:100.0 ~hi:1000.0) in
        let rp = Printf.sprintf "%.1f" (Prng.uniform_range rng ~lo:10e6 ~hi:100e6) in
        (rs, rp))
  in
  let pick =
    Array.init ladder_segments (fun k ->
        if k < ladder_bindings then k
        else int_of_float (Prng.uniform rng *. float_of_int ladder_bindings))
  in
  let buf = Buffer.create (64 * ladder_segments) in
  Buffer.add_string buf "bench ladder: 1000-segment parameterized ladder\n";
  Buffer.add_string buf ".subckt seg a b rs=1k rp=10k\nR1 a mid {rs}\nR2 mid b {rs}\nR3 mid 0 {rp}\n.ends\n";
  Buffer.add_string buf "V1 n0 0 1\n";
  Array.iteri
    (fun k b ->
      let rs, rp = bindings.(b) in
      Printf.bprintf buf "X%d n%d n%d seg rs=%s rp=%s\n" (k + 1) k (k + 1) rs rp)
    pick;
  Printf.bprintf buf "RL n%d 0 1meg\n.op\n.end\n" ladder_segments;
  let seg = Array.map (fun b -> let rs, rp = bindings.(b) in
                        (float_of_string rs, float_of_string rp)) pick in
  (Buffer.contents buf, seg)

(* Node voltages by the Thomas algorithm over the unknown order m1, n1,
   ..., m_N, n_N (V(n0) = 1 V, RL = 1 Mohm at n_N, and the engine's gmin
   from every node to ground). *)
let ladder_reference seg =
  let n = 2 * Array.length seg in
  let a = Array.make n 0.0 and b = Array.make n offline_config.gmin
  and c = Array.make n 0.0 and d = Array.make n 0.0 in
  Array.iteri
    (fun k (rs, rp) ->
      let gs = 1.0 /. rs and gp = 1.0 /. rp in
      let m = 2 * k and nn = (2 * k) + 1 in
      (* mid node: both series resistors and the shunt *)
      b.(m) <- b.(m) +. (2.0 *. gs) +. gp;
      if k = 0 then d.(m) <- gs (* from V(n0) = 1 V *) else begin
        a.(m) <- -.gs;
        c.(m - 1) <- -.gs;
        b.(m - 1) <- b.(m - 1) +. gs
      end;
      (* right series resistor mid -> n_k *)
      a.(nn) <- -.gs;
      c.(m) <- -.gs;
      b.(nn) <- b.(nn) +. gs)
    seg;
  b.(n - 1) <- b.(n - 1) +. 1e-6;
  for i = 1 to n - 1 do
    let w = a.(i) /. b.(i - 1) in
    b.(i) <- b.(i) -. (w *. c.(i - 1));
    d.(i) <- d.(i) -. (w *. d.(i - 1))
  done;
  let x = Array.make n 0.0 in
  x.(n - 1) <- d.(n - 1) /. b.(n - 1);
  for i = n - 2 downto 0 do
    x.(i) <- (d.(i) -. (c.(i) *. x.(i + 1))) /. b.(i)
  done;
  let tbl = Hashtbl.create n in
  Array.iteri
    (fun k _ ->
      Hashtbl.replace tbl (Printf.sprintf "v(x%d.mid)" (k + 1)) x.(2 * k);
      Hashtbl.replace tbl (Printf.sprintf "v(n%d)" (k + 1)) x.((2 * k) + 1))
    seg;
  tbl

let ladder_check reference (tables : Engine.table list) =
  match tables with
  | [ t ] when Array.length t.rows = 1 ->
      let row = t.rows.(0) in
      let checked = ref 0 and worst = ref 0.0 in
      Array.iteri
        (fun j col ->
          match Hashtbl.find_opt reference (String.lowercase_ascii col) with
          | None -> ()
          | Some v ->
              incr checked;
              worst := Float.max !worst (Float.abs (row.(j) -. v) /. Float.abs v))
        t.columns;
      if !checked <> Hashtbl.length reference then
        Error (Printf.sprintf "ladder: %d of %d nodes in the table" !checked
                 (Hashtbl.length reference))
      else if !worst > 1e-9 then
        Error (Printf.sprintf "ladder: worst relative error %.3g against Thomas" !worst)
      else Ok ()
  | _ -> Error "ladder: expected one single-row .op table"

let ladder_setup ~seed =
  let text, seg = ladder_deck ~seed in
  deck_instance text (ladder_check (ladder_reference seg))

(* ------------------------------------------------------------------ *)
(* cntd_mixed: the daemon under a seeded request mix                   *)
(* ------------------------------------------------------------------ *)

(* 60 % of requests reuse one of [repeated_texts] decks (deck-cache
   hits), 40 % send a deck seen once.  Decks differ only in VDD and the
   sweep step, never in the CNFET cards, so a miss pays parse and
   compile but not a model fit.  Odd requests force the virtual-source
   backend, even ones keep the deck's piecewise model (so the first
   request, which set-up time includes, fits it). *)
let repeated_texts = 8
let repeated_share = 0.6

(* A 121-point sweep from 0 to a VDD drawn in [lo, hi): the step is
   drawn with 6 decimals and VDD = 120 steps, so both print exactly. *)
let vtc_deck rng ~lo ~hi =
  let step = Float.round (Prng.uniform_range rng ~lo:(lo /. 120.0) ~hi:(hi /. 120.0) *. 1e6) /. 1e6 in
  let vdd = 120.0 *. step in
  Printf.sprintf
    "bench cntd: inverter VTC\nVDD vdd 0 %.6f\nVIN in 0 0\nMP out in vdd PCNFET\n\
     MN out in 0 CNFET\n.dc VIN 0 %.6f %.6f\n.print v(out) id(MN)\n.end\n"
    vdd vdd step

(* The deck of request [i]: key [Ok k] is repeated text [k], [Error i]
   the request's own text.  Repeated text k draws VDD from the k-th of
   [repeated_texts] equal slices of 0.5-0.7 V, so the cost of the
   repeated set barely depends on the seed. *)
let request ~seed i =
  let stream k = Prng.stream (Prng.create ~seed:(Int64.of_int seed) ()) k in
  let rng = stream (repeated_texts + i) in
  let key =
    if Prng.uniform rng < repeated_share then
      Ok (int_of_float (Prng.uniform rng *. float_of_int repeated_texts))
    else Error i
  in
  let text =
    match key with
    | Ok k ->
        let slice = 0.2 /. float_of_int repeated_texts in
        let lo = 0.5 +. (slice *. float_of_int k) in
        vtc_deck (stream k) ~lo ~hi:(lo +. slice)
    | Error _ -> vtc_deck rng ~lo:0.5 ~hi:0.7
  in
  let model = if i mod 2 = 1 then Some "vs" else None in
  (key, model, text)

(* Label, columns and the exact bits of every row. *)
let digest_tables (tables : Engine.table list) =
  Digest.string
    (String.concat ";"
       (List.map
          (fun (t : Engine.table) ->
            t.analysis_label ^ "|" ^ String.concat "," (Array.to_list t.columns) ^ "|"
            ^ Cnt_obs.Manifest.digest_rows t.rows)
          tables))

let cntd_setup ~seed =
  let sock = Printf.sprintf ".cntbench-%d.sock" (Unix.getpid ()) in
  let listen = Cnt_server.Server.Unix_path sock in
  let server =
    Cnt_server.Server.start
      { (Cnt_server.Server.default_config ~listen) with
        Cnt_server.Server.base = offline_config; jobs_budget = 1 }
  in
  (* (deck, model) -> index and digest of its first reply, and how many
     replies matched it.  Later replies of the same deck and model must
     match that digest, and the first is compared with an offline run
     after the timed pass. *)
  let replies = Hashtbl.create 1024 and replies_mutex = Mutex.create () in
  let with_conn f =
    match Cnt_server.Client.connect sock with
    | Error msg -> Error ("connect: " ^ msg)
    | Ok conn ->
        Fun.protect ~finally:(fun () -> Cnt_server.Client.close conn)
          (fun () -> f conn)
  in
  let op i =
    let key, model, text = request ~seed i in
    let reply =
      Obs.span "bench.request" @@ fun () ->
      with_conn (fun conn ->
          Cnt_server.Client.run conn ~deck_text:text ~config:(config ?model ())
            ~progress:false ()
          |> Result.map_error (fun (e : Cnt_server.Client.error) -> e.kind ^ ": " ^ e.message))
    in
    match reply with
    | Error msg -> failed_outcome msg
    | Ok (tables, server) ->
        ignore (render tables);
        let run_s =
          Option.bind (Cnt_server.Json.member "run_s" server) Cnt_server.Json.to_float
        in
        {
          tables;
          model;
          run_s;
          check =
            (fun () ->
              match tables with
              | [ t ] when Array.length t.rows = 121 -> (
                  let d = digest_tables tables in
                  Mutex.protect replies_mutex @@ fun () ->
                  match Hashtbl.find_opt replies (key, model) with
                  | None ->
                      Hashtbl.add replies (key, model) (i, d, ref 1);
                      Ok ()
                  | Some (_, first, n) when first = d ->
                      incr n;
                      Ok ()
                  | Some _ -> Error "cntd: reply differs from an earlier reply to the same deck")
              | _ -> Error "cntd: expected one 121-point sweep table");
        }
  in
  let finish () =
    Hashtbl.fold
      (fun (_, model) (i, digest, n) acc ->
        let _, _, text = request ~seed i in
        match Engine.run_deck_result ~config:(config ?model ()) (Parser.parse text) with
        | Ok tables when digest_tables tables = digest -> acc
        | _ -> List.init !n (fun _ -> "cntd: reply differs from the offline run of the same deck") @ acc)
      replies []
  in
  let cache_counts () =
    match with_conn (fun conn -> Cnt_server.Client.ping conn ()) with
    | Error _ -> None
    | Ok info ->
        let field name =
          Option.bind (Cnt_server.Json.member "deck_cache" info) (fun d ->
              Option.bind (Cnt_server.Json.member name d) Cnt_server.Json.to_int)
        in
        (match (field "hits", field "misses") with
        | Some h, Some m -> Some (h, m)
        | _ -> None)
  in
  {
    clients = min 2 (Domain.recommended_domain_count ());
    op;
    finish;
    cache_counts;
    extra = (fun () -> []);
    stop = (fun () -> Cnt_server.Server.stop ~grace_s:0.0 server);
  }

(* Traced-pass operation counts keep each traced pass within 1-4 s. *)
let all =
  [
    { name = "table1_family"; trace_ops = 60; setup = table1_setup };
    { name = "ring51_tran"; trace_ops = 60; setup = ring51_setup };
    { name = "ladder_1000"; trace_ops = 400; setup = ladder_setup };
    { name = "cntd_mixed"; trace_ops = 1000; setup = cntd_setup };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
