(* Engine-wide telemetry: nested wall-clock spans, named counters and
   value histograms behind one global registry.

   The registry is disabled by default and every recording call starts
   with a single mutable-bool check, so instrumentation left in hot
   paths (device evaluations, per-iteration stamping) costs one
   predictable branch when telemetry is off.  Counters and histograms
   are interned by name: modules look their instruments up once at
   module-init time and hold the handle, so the hot path performs no
   hashing.

   Each counter keeps one value and each histogram one sample buffer;
   spans share one stack and one event list.  Recording takes no lock:
   every analysis runs on its caller's domain, and cntd runs one
   request at a time.  Only interning takes a mutex, off the hot path
   (module init).

   Spans nest through an explicit stack.  A completed span remembers
   its full path ("parent/child/grandchild"), so reports can aggregate
   by call position rather than by bare name, and the Chrome-trace
   exporter can reconstruct the timeline.  The clock is
   [Unix.gettimeofday] — the same clock the rest of the engine uses;
   timestamps are only ever consumed as differences or as offsets from
   the registry epoch, so a wall-clock step mid-run skews a report but
   cannot crash it. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Instruments                                                         *)
(* ------------------------------------------------------------------ *)

type counter = {
  c_name : string;
  mutable c_value : int;
}

(* Raw samples in a doubling buffer. *)
type histogram = {
  h_name : string;
  mutable h_values : float array;
  mutable h_len : int;
}

type event = {
  ev_path : string; (* "parent/child", aggregation key *)
  ev_name : string;
  ev_depth : int;
  ev_start : float; (* absolute, seconds *)
  ev_dur : float; (* seconds *)
  ev_args : (string * float) list;
}

(* An open span on the stack. *)
type frame = {
  f_name : string;
  f_path : string;
  f_depth : int;
  f_start : float;
  f_args : (string * float) list;
}

type span_token =
  | Disabled_span
  | Open_span of frame

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref false
let epoch_t = ref (now ())

(* Guards interning — never the recording path. *)
let registry_mutex = Mutex.create ()

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 32

(* Open spans, innermost first, and completed events, newest first. *)
let stack : frame list ref = ref []
let events_rev : event list ref = ref []

let enabled () = !enabled_flag

let enable () =
  if not !enabled_flag then begin
    enabled_flag := true;
    if !epoch_t = 0.0 then epoch_t := now ()
  end

let disable () = enabled_flag := false
let epoch () = !epoch_t

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters_tbl;
  Hashtbl.iter (fun _ h -> h.h_len <- 0) histograms_tbl;
  stack := [];
  events_rev := [];
  epoch_t := now ();
  Mutex.unlock registry_mutex

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let counter name =
  Mutex.lock registry_mutex;
  let c =
    match Hashtbl.find_opt counters_tbl name with
    | Some c -> c
    | None ->
        let c = { c_name = name; c_value = 0 } in
        Hashtbl.add counters_tbl name c;
        c
  in
  Mutex.unlock registry_mutex;
  c

let incr ?(by = 1) c =
  if by < 0 then
    invalid_arg
      (Printf.sprintf "Obs.incr: negative increment %d on %s" by c.c_name);
  if !enabled_flag then c.c_value <- c.c_value + by

let value c = c.c_value
let counter_name c = c.c_name

let counters () =
  Hashtbl.fold (fun name c acc -> (name, value c) :: acc) counters_tbl []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let histogram name =
  Mutex.lock registry_mutex;
  let h =
    match Hashtbl.find_opt histograms_tbl name with
    | Some h -> h
    | None ->
        let h = { h_name = name; h_values = [||]; h_len = 0 } in
        Hashtbl.add histograms_tbl name h;
        h
  in
  Mutex.unlock registry_mutex;
  h

let observe h v =
  if !enabled_flag then begin
    if h.h_len = Array.length h.h_values then begin
      let bigger = Array.make (max 64 (2 * h.h_len)) 0.0 in
      Array.blit h.h_values 0 bigger 0 h.h_len;
      h.h_values <- bigger
    end;
    h.h_values.(h.h_len) <- v;
    h.h_len <- h.h_len + 1
  end

let histogram_count h = h.h_len
let histogram_values h = Array.sub h.h_values 0 h.h_len

(* Quantile with linear interpolation between order statistics (the
   common "type 7" estimator) over a sorted array: q = 0 is the
   minimum, q = 1 the maximum. *)
let quantile_of_sorted values q =
  let n = Array.length values in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  values.(lo) +. (frac *. (values.(hi) -. values.(lo)))

let quantile h q =
  if q < 0.0 || q > 1.0 then
    invalid_arg (Printf.sprintf "Obs.quantile: q = %g outside [0, 1]" q);
  if histogram_count h = 0 then
    invalid_arg ("Obs.quantile: empty histogram " ^ h.h_name);
  let values = histogram_values h in
  Array.sort compare values;
  quantile_of_sorted values q

type hist_summary = {
  count : int;
  minimum : float;
  maximum : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summary h =
  let n = histogram_count h in
  if n = 0 then None
  else begin
    let values = histogram_values h in
    Array.sort compare values;
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum := !sum +. values.(i)
    done;
    Some
      {
        count = n;
        minimum = values.(0);
        maximum = values.(n - 1);
        mean = !sum /. float_of_int n;
        p50 = quantile_of_sorted values 0.5;
        p90 = quantile_of_sorted values 0.9;
        p99 = quantile_of_sorted values 0.99;
      }
  end

let histograms () =
  Hashtbl.fold
    (fun name h acc ->
      match summary h with None -> acc | Some s -> (name, s) :: acc)
    histograms_tbl []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let start_span name =
  if not !enabled_flag then Disabled_span
  else begin
    let path, depth =
      match !stack with
      | top :: _ -> (top.f_path ^ "/" ^ name, top.f_depth + 1)
      | [] -> (name, 0)
    in
    let f = { f_name = name; f_path = path; f_depth = depth; f_start = now (); f_args = [] } in
    stack := f :: !stack;
    Open_span f
  end

(* Close [tok] and every span opened after it that was left open (an
   exception unwound past their end_span calls). *)
let end_span ?(args = []) tok =
  match tok with
  | Disabled_span -> ()
  | Open_span f ->
      let t_end = now () in
      let rec pop = function
        | [] -> [] (* token not on the stack: reset() ran mid-span; drop *)
        | top :: rest ->
            events_rev :=
              {
                ev_path = top.f_path;
                ev_name = top.f_name;
                ev_depth = top.f_depth;
                ev_start = top.f_start;
                ev_dur = t_end -. top.f_start;
                ev_args = (if top == f then args else top.f_args);
              }
              :: !events_rev;
            if top == f then rest else pop rest
      in
      stack := pop !stack

let span ?args name f =
  if not !enabled_flag then f ()
  else begin
    let tok = start_span name in
    match f () with
    | v ->
        end_span ?args tok;
        v
    | exception e ->
        end_span ?args tok;
        raise e
  end

(* Completed spans in completion order. *)
let events () = List.rev !events_rev
let event_count () = List.length !events_rev
