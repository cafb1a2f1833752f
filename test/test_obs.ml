(* Tests for the telemetry registry: span nesting and ordering, counter
   monotonicity, histogram quantiles, disabled-mode no-ops, and the
   well-formedness of the Chrome trace-event export. *)

open Cnt_obs

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected got =
  if not (approx ~eps expected got) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected got

(* Every test owns the global registry for its duration. *)
let fresh () =
  Obs.disable ();
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Disabled mode                                                      *)
(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  fresh ();
  let c = Obs.counter "test.disabled_counter" in
  let h = Obs.histogram "test.disabled_hist" in
  Obs.incr c;
  Obs.incr ~by:41 c;
  Obs.observe h 1.0;
  let r = Obs.span "test.disabled_span" (fun () -> 17) in
  let tok = Obs.start_span "test.disabled_manual" in
  Obs.end_span tok;
  Alcotest.(check int) "span passes result through when disabled" 17 r;
  Alcotest.(check int) "counter stays zero" 0 (Obs.value c);
  Alcotest.(check int) "histogram stays empty" 0 (Obs.histogram_count h);
  Alcotest.(check int) "no events recorded" 0 (Obs.event_count ());
  Alcotest.(check bool) "registry reports disabled" false (Obs.enabled ())

let test_disabled_still_validates () =
  fresh ();
  let c = Obs.counter "test.disabled_negative" in
  Alcotest.check_raises "negative by rejected even when disabled"
    (Invalid_argument "Obs.incr: negative increment -3 on test.disabled_negative")
    (fun () -> Obs.incr ~by:(-3) c)

let test_enable_disable_cycle () =
  fresh ();
  let c = Obs.counter "test.cycle" in
  Obs.enable ();
  Obs.incr c;
  Obs.disable ();
  Obs.incr ~by:100 c;
  Obs.enable ();
  Obs.incr c;
  Alcotest.(check int) "only enabled increments count" 2 (Obs.value c);
  fresh ()

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let test_counter_monotonic () =
  fresh ();
  Obs.enable ();
  let c = Obs.counter "test.mono" in
  Obs.incr c;
  Obs.incr ~by:0 c;
  Obs.incr ~by:5 c;
  Alcotest.(check int) "1 + 0 + 5" 6 (Obs.value c);
  Alcotest.check_raises "negative by raises"
    (Invalid_argument "Obs.incr: negative increment -1 on test.mono")
    (fun () -> Obs.incr ~by:(-1) c);
  Alcotest.(check int) "value unchanged after rejected incr" 6 (Obs.value c);
  fresh ()

let test_counter_interning () =
  fresh ();
  Obs.enable ();
  let a = Obs.counter "test.interned" in
  let b = Obs.counter "test.interned" in
  Obs.incr a;
  Obs.incr b;
  Alcotest.(check int) "same name is the same counter" 2 (Obs.value a);
  Alcotest.(check string) "name round-trips" "test.interned" (Obs.counter_name a);
  fresh ()

let test_counters_listing_sorted () =
  fresh ();
  Obs.enable ();
  Obs.incr ~by:2 (Obs.counter "test.list_b");
  Obs.incr ~by:1 (Obs.counter "test.list_a");
  let listed =
    Obs.counters ()
    |> List.filter (fun (n, _) -> String.length n >= 9 && String.sub n 0 9 = "test.list")
  in
  Alcotest.(check (list (pair string int)))
    "sorted by name with values"
    [ ("test.list_a", 1); ("test.list_b", 2) ]
    listed;
  fresh ()

let test_reset_zeroes () =
  fresh ();
  Obs.enable ();
  let c = Obs.counter "test.reset" in
  let h = Obs.histogram "test.reset_h" in
  Obs.incr ~by:9 c;
  Obs.observe h 1.0;
  Obs.span "test.reset_span" (fun () -> ());
  Obs.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Obs.value c);
  Alcotest.(check int) "histogram emptied" 0 (Obs.histogram_count h);
  Alcotest.(check int) "events dropped" 0 (Obs.event_count ());
  Obs.incr c;
  Alcotest.(check int) "handle still valid after reset" 1 (Obs.value c);
  fresh ()

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)
(* ------------------------------------------------------------------ *)

let test_quantile_known_values () =
  fresh ();
  Obs.enable ();
  let h = Obs.histogram "test.q" in
  (* Insert out of order; quantiles must not depend on arrival order. *)
  List.iter (Obs.observe h) [ 3.0; 1.0; 4.0; 2.0 ];
  check_float "q=0 is the minimum" 1.0 (Obs.quantile h 0.0);
  check_float "q=1 is the maximum" 4.0 (Obs.quantile h 1.0);
  (* Type-7: position (n-1)q; for n=4, q=0.5 -> 2.5; q=0.25 -> 1.75. *)
  check_float "median interpolates" 2.5 (Obs.quantile h 0.5);
  check_float "first quartile interpolates" 1.75 (Obs.quantile h 0.25);
  Obs.observe h 5.0;
  check_float "odd count median is exact" 3.0 (Obs.quantile h 0.5);
  fresh ()

let test_quantile_errors () =
  fresh ();
  Obs.enable ();
  let h = Obs.histogram "test.q_err" in
  Alcotest.check_raises "empty histogram"
    (Invalid_argument "Obs.quantile: empty histogram test.q_err")
    (fun () -> ignore (Obs.quantile h 0.5));
  Obs.observe h 1.0;
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Obs.quantile: q = 1.5 outside [0, 1]")
    (fun () -> ignore (Obs.quantile h 1.5));
  fresh ()

let test_summary () =
  fresh ();
  Obs.enable ();
  let h = Obs.histogram "test.summary" in
  Alcotest.(check bool) "empty summary is None" true (Obs.summary h = None);
  for i = 1 to 100 do
    Obs.observe h (float_of_int i)
  done;
  (match Obs.summary h with
  | None -> Alcotest.fail "summary present after observations"
  | Some s ->
      Alcotest.(check int) "count" 100 s.Obs.count;
      check_float "min" 1.0 s.Obs.minimum;
      check_float "max" 100.0 s.Obs.maximum;
      check_float "mean" 50.5 s.Obs.mean;
      check_float "p50" 50.5 s.Obs.p50;
      (* type-7 on 1..100: position 99q + 1 *)
      check_float "p90" 90.1 ~eps:1e-6 s.Obs.p90;
      check_float "p99" 99.01 ~eps:1e-6 s.Obs.p99);
  fresh ()

let test_quantile_bounds_prop =
  QCheck.Test.make ~count:200 ~name:"quantile stays within [min, max]"
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (float_range (-1e3) 1e3))
              (float_range 0.0 1.0))
    (fun (samples, q) ->
      QCheck.assume (samples <> []);
      fresh ();
      Obs.enable ();
      let h = Obs.histogram "test.q_prop" in
      List.iter (Obs.observe h) samples;
      let v = Obs.quantile h q in
      let lo = List.fold_left Float.min Float.infinity samples in
      let hi = List.fold_left Float.max Float.neg_infinity samples in
      fresh ();
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let test_span_nesting_and_ordering () =
  fresh ();
  Obs.enable ();
  Obs.span "outer" (fun () ->
      Obs.span "inner" (fun () -> ());
      Obs.span "inner" (fun () -> ()));
  let evs = Obs.events () in
  Alcotest.(check int) "three completed spans" 3 (List.length evs);
  (* Completion order: children close before the parent. *)
  Alcotest.(check (list string))
    "completion order"
    [ "outer/inner"; "outer/inner"; "outer" ]
    (List.map (fun e -> e.Obs.ev_path) evs);
  Alcotest.(check (list int))
    "depths" [ 1; 1; 0 ]
    (List.map (fun e -> e.Obs.ev_depth) evs);
  let outer = List.nth evs 2 and inner = List.hd evs in
  Alcotest.(check bool) "child starts after parent" true
    (inner.Obs.ev_start >= outer.Obs.ev_start);
  Alcotest.(check bool) "child fits inside parent" true
    (inner.Obs.ev_start +. inner.Obs.ev_dur
     <= outer.Obs.ev_start +. outer.Obs.ev_dur +. 1e-9);
  fresh ()

let test_span_exception_safety () =
  fresh ();
  Obs.enable ();
  (try Obs.span "raising" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span closed on exception" 1 (Obs.event_count ());
  fresh ()

let test_span_dangling_close () =
  fresh ();
  Obs.enable ();
  let a = Obs.start_span "a" in
  let _b = Obs.start_span "b" in
  let _c = Obs.start_span "c" in
  (* Closing [a] must also close the dangling [b] and [c] above it. *)
  Obs.end_span a;
  let evs = Obs.events () in
  Alcotest.(check (list string))
    "dangling children closed innermost-first"
    [ "a/b/c"; "a/b"; "a" ]
    (List.map (fun e -> e.Obs.ev_path) evs);
  (* The stack is clean again: a new root span nests at depth 0. *)
  Obs.span "after" (fun () -> ());
  let last = List.nth (Obs.events ()) 3 in
  Alcotest.(check string) "stack recovered" "after" last.Obs.ev_path;
  fresh ()

let test_span_args () =
  fresh ();
  Obs.enable ();
  let tok = Obs.start_span "with_args" in
  Obs.end_span ~args:[ ("iterations", 7.0) ] tok;
  match Obs.events () with
  | [ e ] ->
      Alcotest.(check (list (pair string (float 1e-9))))
        "args attached" [ ("iterations", 7.0) ] e.Obs.ev_args;
      fresh ()
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_profile_tree_aggregates () =
  fresh ();
  Obs.enable ();
  Obs.span "root" (fun () ->
      Obs.span "child" (fun () -> ());
      Obs.span "child" (fun () -> ()));
  Obs.span "root" (fun () -> ());
  (match Report.profile_tree () with
  | [ root ] ->
      Alcotest.(check string) "root path" "root" root.Report.path;
      Alcotest.(check int) "root merges both calls" 2 root.Report.count;
      (match root.Report.children with
      | [ child ] ->
          Alcotest.(check string) "child keyed by full path" "root/child"
            child.Report.path;
          Alcotest.(check int) "child merges both calls" 2 child.Report.count;
          Alcotest.(check bool) "self excludes children" true
            (root.Report.self_s <= root.Report.total_s +. 1e-12)
      | cs -> Alcotest.failf "expected 1 child node, got %d" (List.length cs))
  | ns -> Alcotest.failf "expected 1 root node, got %d" (List.length ns));
  fresh ()

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                *)
(* ------------------------------------------------------------------ *)

(* A minimal JSON reader — just enough structure to validate the trace
   export without an external dependency. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\255' in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      if peek () <> c then fail (Printf.sprintf "expected %c" c);
      advance ()
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | '"' -> Buffer.add_char buf '"'; advance ()
            | '\\' -> Buffer.add_char buf '\\'; advance ()
            | '/' -> Buffer.add_char buf '/'; advance ()
            | 'n' -> Buffer.add_char buf '\n'; advance ()
            | 't' -> Buffer.add_char buf '\t'; advance ()
            | 'r' -> Buffer.add_char buf '\r'; advance ()
            | 'b' -> Buffer.add_char buf '\b'; advance ()
            | 'f' -> Buffer.add_char buf '\012'; advance ()
            | 'u' ->
                advance ();
                if !pos + 4 > n then fail "truncated \\u escape";
                (* keep the raw escape; code points are irrelevant here *)
                Buffer.add_string buf (String.sub s !pos 4);
                pos := !pos + 4
            | _ -> fail "bad escape");
            go ()
        | '\255' -> fail "unterminated string"
        | c -> Buffer.add_char buf c; advance (); go ()
      in
      go ();
      Buffer.contents buf
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then (advance (); Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' -> advance (); members ((k, v) :: acc)
              | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected , or } in object"
            in
            members []
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then (advance (); List [])
          else
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' -> advance (); elements (v :: acc)
              | ']' -> advance (); List (List.rev (v :: acc))
              | _ -> fail "expected , or ] in array"
            in
            elements []
      | '"' -> Str (parse_string ())
      | 't' ->
          if !pos + 4 <= n && String.sub s !pos 4 = "true" then (pos := !pos + 4; Bool true)
          else fail "bad literal"
      | 'f' ->
          if !pos + 5 <= n && String.sub s !pos 5 = "false" then (pos := !pos + 5; Bool false)
          else fail "bad literal"
      | 'n' ->
          if !pos + 4 <= n && String.sub s !pos 4 = "null" then (pos := !pos + 4; Null)
          else fail "bad literal"
      | _ ->
          let start = !pos in
          while
            !pos < n
            && (match s.[!pos] with
               | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
               | _ -> false)
          do
            advance ()
          done;
          if !pos = start then fail "unexpected character";
          (match float_of_string_opt (String.sub s start (!pos - start)) with
          | Some f -> Num f
          | None -> fail "bad number")
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None
end

let test_chrome_trace_well_formed () =
  fresh ();
  Obs.enable ();
  Obs.incr ~by:3 (Obs.counter "test.trace_counter");
  Obs.span "trace \"outer\"" (fun () -> Obs.span "trace_inner" (fun () -> ()));
  let json =
    match Json.parse (Trace.to_chrome_json ()) with
    | j -> j
    | exception Json.Bad msg -> Alcotest.failf "trace JSON does not parse: %s" msg
  in
  (match Json.member "displayTimeUnit" json with
  | Some (Json.Str "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing or not \"ms\"");
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing or not an array"
  in
  Alcotest.(check bool) "has events" true (events <> []);
  let phases = ref [] in
  let names = ref [] in
  List.iter
    (fun ev ->
      (match Json.member "ph" ev with
      | Some (Json.Str (("X" | "C") as ph)) ->
          if not (List.mem ph !phases) then phases := ph :: !phases
      | _ -> Alcotest.fail "event ph missing or not X/C");
      (match Json.member "name" ev with
      | Some (Json.Str name) -> names := name :: !names
      | _ -> Alcotest.fail "event name missing");
      (match Json.member "ts" ev with
      | Some (Json.Num ts) ->
          Alcotest.(check bool) "ts is a non-negative number" true (ts >= 0.0)
      | _ -> Alcotest.fail "event ts missing");
      match Json.member "ph" ev with
      | Some (Json.Str "X") -> (
          match Json.member "dur" ev with
          | Some (Json.Num dur) ->
              Alcotest.(check bool) "dur non-negative" true (dur >= 0.0)
          | _ -> Alcotest.fail "complete event missing dur")
      | _ -> ())
    events;
  Alcotest.(check bool) "both complete and counter events present" true
    (List.mem "X" !phases && List.mem "C" !phases);
  Alcotest.(check bool) "escaped span name survives round-trip" true
    (List.mem "trace \"outer\"" !names);
  Alcotest.(check bool) "inner span exported" true (List.mem "trace_inner" !names);
  Alcotest.(check bool) "counter exported" true (List.mem "test.trace_counter" !names);
  fresh ()

let test_events_jsonl_parses () =
  fresh ();
  Obs.enable ();
  Obs.span "jsonl" (fun () -> ());
  let lines =
    Report.events_jsonl () |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per event" 1 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Json.Obj _ -> ()
      | _ -> Alcotest.fail "jsonl line is not an object"
      | exception Json.Bad msg -> Alcotest.failf "jsonl line does not parse: %s" msg)
    lines;
  fresh ()

let () =
  Alcotest.run "cnt_obs"
    [
      ( "disabled",
        [
          Alcotest.test_case "all instruments are no-ops" `Quick test_disabled_noop;
          Alcotest.test_case "argument validation still applies" `Quick
            test_disabled_still_validates;
          Alcotest.test_case "enable/disable cycling" `Quick test_enable_disable_cycle;
        ] );
      ( "counters",
        [
          Alcotest.test_case "monotonic increments" `Quick test_counter_monotonic;
          Alcotest.test_case "interning by name" `Quick test_counter_interning;
          Alcotest.test_case "listing is sorted" `Quick test_counters_listing_sorted;
          Alcotest.test_case "reset zeroes everything" `Quick test_reset_zeroes;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "known quantiles" `Quick test_quantile_known_values;
          Alcotest.test_case "quantile errors" `Quick test_quantile_errors;
          Alcotest.test_case "summary statistics" `Quick test_summary;
          QCheck_alcotest.to_alcotest test_quantile_bounds_prop;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and completion order" `Quick
            test_span_nesting_and_ordering;
          Alcotest.test_case "closed on exception" `Quick test_span_exception_safety;
          Alcotest.test_case "dangling children closed" `Quick test_span_dangling_close;
          Alcotest.test_case "numeric args" `Quick test_span_args;
          Alcotest.test_case "profile tree aggregation" `Quick
            test_profile_tree_aggregates;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace well-formed" `Quick
            test_chrome_trace_well_formed;
          Alcotest.test_case "events jsonl parses" `Quick test_events_jsonl_parses;
        ] );
    ]
