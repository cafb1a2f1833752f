(* Human- and machine-readable views of the telemetry registry.

   The profile tree aggregates completed spans by their nesting path:
   two spans named "mna.solve" under different parents stay distinct,
   repeated spans at the same position merge into one node with a call
   count and a total.  Self time is the node total minus its children's
   totals — the cost of the node's own code, which is what a profile
   is read for. *)

type node = {
  name : string;
  path : string;
  total_s : float;
  self_s : float;
  count : int;
  children : node list;
}

(* Aggregate events by path, then stitch paths into a forest.  Child
   links come from the path structure ("a/b" is a child of "a"), which
   is well-defined because a span's path always extends its parent's. *)
let profile_tree () =
  let agg : (string, string * int * float ref * int ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let order = ref [] in
  List.iter
    (fun e ->
      match Hashtbl.find_opt agg e.Obs.ev_path with
      | Some (_, _, total, count) ->
          total := !total +. e.Obs.ev_dur;
          incr count
      | None ->
          Hashtbl.add agg e.Obs.ev_path
            (e.Obs.ev_name, e.Obs.ev_depth, ref e.Obs.ev_dur, ref 1);
          order := e.Obs.ev_path :: !order)
    (Obs.events ());
  let paths = List.rev !order in
  let children_of path depth =
    List.filter
      (fun p ->
        let _, d, _, _ = Hashtbl.find agg p in
        d = depth + 1
        && String.length p > String.length path
        && String.sub p 0 (String.length path) = path
        && p.[String.length path] = '/')
      paths
  in
  let rec build path =
    let name, depth, total, count = Hashtbl.find agg path in
    let children = List.map build (children_of path depth) in
    let child_total = List.fold_left (fun acc c -> acc +. c.total_s) 0.0 children in
    {
      name;
      path;
      total_s = !total;
      self_s = Float.max 0.0 (!total -. child_total);
      count = !count;
      children;
    }
  in
  List.filter_map
    (fun p ->
      let _, depth, _, _ = Hashtbl.find agg p in
      if depth = 0 then Some (build p) else None)
    paths

(* Per-path span durations, for latency-distribution rendering. *)
let span_durations () =
  let tbl : (string, float list ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl e.Obs.ev_path with
      | Some l -> l := e.Obs.ev_dur :: !l
      | None ->
          Hashtbl.add tbl e.Obs.ev_path (ref [ e.Obs.ev_dur ]);
          order := e.Obs.ev_path :: !order)
    (Obs.events ());
  List.rev_map
    (fun p -> (p, Array.of_list (List.rev !(Hashtbl.find tbl p))))
    !order
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Text rendering                                                      *)
(* ------------------------------------------------------------------ *)

let si_time s =
  if s >= 1.0 then Printf.sprintf "%.3f s" s
  else if s >= 1e-3 then Printf.sprintf "%.3f ms" (s *. 1e3)
  else if s >= 1e-6 then Printf.sprintf "%.3f us" (s *. 1e6)
  else Printf.sprintf "%.0f ns" (s *. 1e9)

let pp_profile fmt () =
  let tree = profile_tree () in
  if tree = [] then Format.fprintf fmt "profile: no spans recorded@."
  else begin
    Format.fprintf fmt "%-44s %12s %12s %8s@." "span" "total" "self" "calls";
    let rec pp_node indent n =
      Format.fprintf fmt "%-44s %12s %12s %8d@."
        (String.make (2 * indent) ' ' ^ n.name)
        (si_time n.total_s) (si_time n.self_s) n.count;
      List.iter (pp_node (indent + 1))
        (List.sort (fun a b -> compare b.total_s a.total_s) n.children)
    in
    List.iter (pp_node 0) tree
  end;
  let cs = Obs.counters () in
  if cs <> [] then begin
    Format.fprintf fmt "@.%-44s %12s@." "counter" "value";
    List.iter (fun (name, v) -> Format.fprintf fmt "%-44s %12d@." name v) cs
  end;
  let hs = Obs.histograms () in
  if hs <> [] then begin
    Format.fprintf fmt "@.%-28s %8s %10s %10s %10s %10s %10s@." "histogram"
      "count" "mean" "p50" "p90" "p99" "max";
    List.iter
      (fun (name, s) ->
        Format.fprintf fmt "%-28s %8d %10.3g %10.3g %10.3g %10.3g %10.3g@." name
          s.Obs.count s.Obs.mean s.Obs.p50 s.Obs.p90 s.Obs.p99 s.Obs.maximum)
      hs
  end

let render_profile () = Format.asprintf "%a" pp_profile ()

(* ------------------------------------------------------------------ *)
(* CSV / JSON-lines dumps                                              *)
(* ------------------------------------------------------------------ *)

let counters_csv () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "counter,value\n";
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s,%d\n" name v))
    (Obs.counters ());
  Buffer.contents buf

let histograms_csv () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "histogram,count,min,mean,p50,p90,p99,max\n";
  List.iter
    (fun (name, s) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n" name s.Obs.count
           s.Obs.minimum s.Obs.mean s.Obs.p50 s.Obs.p90 s.Obs.p99 s.Obs.maximum))
    (Obs.histograms ());
  Buffer.contents buf

(* One JSON object per completed span, in completion order. *)
let events_jsonl () =
  let epoch = Obs.epoch () in
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"path\":\"%s\",\"name\":\"%s\",\"depth\":%d,\"start_s\":%.9f,\"dur_s\":%.9f}\n"
           e.Obs.ev_path e.Obs.ev_name e.Obs.ev_depth
           (e.Obs.ev_start -. epoch) e.Obs.ev_dur))
    (Obs.events ());
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; instrument names
   use dots, so map anything else to '_'. *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

(* Label values are double-quoted with backslash, quote and newline
   escaped. *)
let prom_label_value s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_number v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" v

let prometheus () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let metric = "cnt_" ^ prom_name name ^ "_total" in
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s Engine counter %s.\n# TYPE %s counter\n%s %d\n"
           metric name metric metric v))
    (Obs.counters ());
  List.iter
    (fun (name, (s : Obs.hist_summary)) ->
      let metric = "cnt_" ^ prom_name name in
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s Engine histogram %s.\n# TYPE %s summary\n"
           metric name metric);
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{quantile=\"%s\"} %s\n" metric q (prom_number v)))
        [ ("0.5", s.Obs.p50); ("0.9", s.Obs.p90); ("0.99", s.Obs.p99) ];
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %s\n%s_count %d\n" metric
           (prom_number (s.Obs.mean *. float_of_int s.Obs.count))
           metric s.Obs.count))
    (Obs.histograms ());
  let rec flat acc n = List.fold_left flat (n :: acc) n.children in
  let nodes = List.rev (List.fold_left flat [] (profile_tree ())) in
  if nodes <> [] then
    Buffer.add_string buf
      "# HELP cnt_obs_span_seconds Total wall time per span position.\n\
       # TYPE cnt_obs_span_seconds gauge\n";
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "cnt_obs_span_seconds{path=\"%s\"} %s\n"
           (prom_label_value n.path) (prom_number n.total_s)))
    nodes;
  Buffer.contents buf
