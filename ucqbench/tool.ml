(* Helper executable of the ucqc benchmark (driven by run.py).

   Subcommands:
     ref                         time a fixed pure-OCaml loop (machine sentinel)
     probe                       time a tenth of that loop (the probe run.py
                                 takes between ops to rescale their times)
     oracle DB Q...              exact counts via Ucq.count_via_expansion_big
     oracle-cycle DB CYCLE Q...  exact counts of each query after every
                                 update of a mutation cycle, recomputed
                                 from a fresh structure per state
     profile-count Q DB SECONDS EXPECT
                                 in-process per-layer timing of the
                                 `ucqc count` pipeline
     profile-delta DB CYCLE SECONDS Q...
                                 in-process timing of Delta.apply and of
                                 Delta.apply_state per maintenance tier
     profile-load DB             parse time of a database and the cost of
                                 one Structure.num_tuples walk over it
     replay FRAMES               in-process Framer / Protocol / render
                                 timing over recorded wire frames
     loadgen SOCKET PLAN OUT WARMUP SECONDS TRACE
                                 closed-loop client over one connection

   Every subcommand prints one JSON object on stdout. *)

let now = Unix.gettimeofday

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let json fields = print_endline (Trace_json.to_string (Trace_json.Obj fields))
let num f = Trace_json.Num f
let inum i = Trace_json.Num (float_of_int i)

(* ------------------------------------------------------------------ *)
(* Machine sentinel                                                    *)
(* ------------------------------------------------------------------ *)

(* A fixed amount of pure-OCaml work (integer arithmetic plus a small
   array that stays in cache): it never changes with the program under
   test, so a change in its time is the machine, not the code. *)
let ref_loop iters =
  let a = Array.make 4096 0 in
  let x = ref 12345 in
  for i = 1 to iters do
    x := (!x * 1103515245) + 12345;
    let j = (!x lsr 16) land 4095 in
    a.(j) <- a.(j) + i
  done;
  Sys.opaque_identity a.(0)

let ref_ms iters =
  let t0 = now () in
  ignore (ref_loop iters);
  (now () -. t0) *. 1000.

let sentinel_iters = 20_000_000
let probe_iters = sentinel_iters / 10
let cmd_ref iters = json [ ("ref_ms", num (ref_ms iters)) ]

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

let load_db path = fst (Parse.database (read_file path))
let load_ucq path = fst (Parse.ucq (read_file path))

let cmd_oracle db queries =
  let d = load_db db in
  json
    [
      ( "counts",
        Trace_json.Arr
          (List.map
             (fun q ->
               Trace_json.Str
                 (Bigint.to_string (Ucq.count_via_expansion_big (load_ucq q) d)))
             queries) );
    ]

(* A mutation cycle file holds one update per line: "+E 3 7" / "-E 3 7". *)
let parse_update line =
  let op =
    match line.[0] with
    | '+' -> `Insert
    | '-' -> `Delete
    | _ -> failwith ("bad update line: " ^ line)
  in
  match String.split_on_char ' ' (String.sub line 1 (String.length line - 1)) with
  | rel :: args -> (op, rel, List.map int_of_string args)
  | [] -> failwith ("bad update line: " ^ line)

(* The client-side mirror: a plain hash set of tuples per relation,
   turned into a brand-new structure for every state, so the oracle
   shares nothing with the server's maintained (delta) path. *)
let cmd_oracle_cycle db cycle queries =
  let d0 = load_db db in
  let psis = List.map load_ucq queries in
  let mirror = Hashtbl.create 16 in
  List.iter
    (fun (rel, ts) ->
      let h = Hashtbl.create (List.length ts) in
      List.iter (fun t -> Hashtbl.replace h t ()) ts;
      Hashtbl.replace mirror rel h)
    (Structure.relations d0);
  let fresh () =
    Structure.make (Structure.signature d0) (Structure.universe d0)
      (Hashtbl.fold
         (fun rel h acc -> (rel, Hashtbl.fold (fun t () l -> t :: l) h []) :: acc)
         mirror [])
  in
  let counts =
    List.map
      (fun line ->
        let op, rel, t = parse_update line in
        let h = Hashtbl.find mirror rel in
        (match op with
        | `Insert ->
            if Hashtbl.mem h t then failwith ("insert of a present tuple: " ^ line);
            Hashtbl.replace h t ()
        | `Delete ->
            if not (Hashtbl.mem h t) then
              failwith ("delete of an absent tuple: " ^ line);
            Hashtbl.remove h t);
        let d = fresh () in
        Trace_json.Arr
          (List.map
             (fun psi ->
               Trace_json.Str
                 (Bigint.to_string (Ucq.count_via_expansion_big psi d)))
             psis))
      (read_lines cycle)
  in
  json [ ("counts", Trace_json.Arr counts) ]

(* ------------------------------------------------------------------ *)
(* Per-layer profiles                                                  *)
(* ------------------------------------------------------------------ *)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.)

(* The `ucqc count` pipeline with the CLI's defaults (optimizer on,
   expansion method, one job), either as one timed block or with a timer
   around each layer's public entry point. *)
let count_plain qtext dtext =
  let d, _ = Parse.database dtext in
  let psi, _ = Parse.ucq qtext in
  let r = Optimize.run psi in
  Ucq.count_via_expansion ~budget:(Budget.make ()) r.Optimize.optimized d

type layers = {
  db_parse : float;
  q_parse : float;
  opt : float;
  support : float;
  terms : float;
  term_max : float;
  cyclic : int;
  acyclic : int;
  steps : int;
  removed : int;
  atoms_removed : int;
  subsets : int;
  nterms : int;
  tuples : int;
  alloc_mb : float;
  major : int;
  total : float;
  result : int;
}

let count_traced qtext dtext =
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let (d, _), db_parse = timed (fun () -> Parse.database dtext) in
  let (psi, _), q_parse = timed (fun () -> Parse.ucq qtext) in
  let r, opt = timed (fun () -> Optimize.run psi) in
  let psi' = r.Optimize.optimized in
  let budget = Budget.make () in
  let support, support_ms = timed (fun () -> Ucq.support ~budget psi') in
  let term_max = ref 0. and terms = ref 0. in
  let cyclic = ref 0 and acyclic = ref 0 in
  let result =
    List.fold_left
      (fun acc (t : Ucq.expansion_term) ->
        let c, ms =
          timed (fun () -> Counting.count ~budget t.Ucq.representative d)
        in
        terms := !terms +. ms;
        if ms > !term_max then term_max := ms;
        acc + (t.Ucq.coefficient * c))
      0 support
  in
  let total = (now () -. t0) *. 1000. in
  List.iter
    (fun (t : Ucq.expansion_term) ->
      if Cq.is_acyclic t.Ucq.representative then incr acyclic else incr cyclic)
    support;
  let g1 = Gc.quick_stat () in
  {
    db_parse;
    q_parse;
    opt;
    support = support_ms;
    terms = !terms;
    term_max = !term_max;
    cyclic = !cyclic;
    acyclic = !acyclic;
    steps = Budget.steps_done budget;
    removed = Optimize.disjuncts_removed r;
    atoms_removed = Optimize.atoms_removed r;
    subsets = (1 lsl Ucq.length psi') - 1;
    nterms = List.length support;
    tuples = Structure.num_tuples d;
    alloc_mb = (Gc.allocated_bytes () -. a0) /. 1048576.;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
    total;
    result;
  }

(* Alternate untraced and traced iterations for [seconds], so the two
   medians see the same machine and their ratio is the tracing
   overhead. *)
let cmd_profile_count q db seconds expect =
  let qtext = read_file q and dtext = read_file db in
  let deadline = now () +. seconds in
  let plain = ref [] and traced = ref [] and wrong = ref 0 in
  let check n = if string_of_int n <> expect then incr wrong in
  while now () < deadline || !traced = [] do
    let n, ms = timed (fun () -> count_plain qtext dtext) in
    check n;
    plain := ms :: !plain;
    let l = count_traced qtext dtext in
    check l.result;
    traced := l :: !traced
  done;
  let ls = !traced in
  let med f = median (List.map f ls) in
  let medi f = median (List.map (fun l -> float_of_int (f l)) ls) in
  let total = med (fun l -> l.total) in
  let covered =
    med (fun l -> (l.db_parse +. l.q_parse +. l.opt +. l.support +. l.terms) /. l.total)
  in
  json
    [
      ("iterations", inum (List.length ls));
      ("wrong", inum !wrong);
      ("frontend.db_parse_ms", num (med (fun l -> l.db_parse)));
      ("frontend.db_tuples", medi (fun l -> l.tuples) |> num);
      ("frontend.query_parse_ms", num (med (fun l -> l.q_parse)));
      ("optimize.run_ms", num (med (fun l -> l.opt)));
      ("optimize.disjuncts_removed", num (medi (fun l -> l.removed)));
      ("optimize.atoms_removed", num (medi (fun l -> l.atoms_removed)));
      ("ucq.support_ms", num (med (fun l -> l.support)));
      ("ucq.expansion_subsets", num (medi (fun l -> l.subsets)));
      ("ucq.support_terms", num (medi (fun l -> l.nterms)));
      ("db.terms_ms", num (med (fun l -> l.terms)));
      ("db.term_max_ms", num (med (fun l -> l.term_max)));
      ("db.terms_cyclic", num (medi (fun l -> l.cyclic)));
      ("db.terms_acyclic", num (medi (fun l -> l.acyclic)));
      ("db.steps", num (medi (fun l -> l.steps)));
      ("runtime.alloc_mb", num (med (fun l -> l.alloc_mb)));
      ("runtime.major_gcs", num (medi (fun l -> l.major)));
      ("trace.coverage", num covered);
      ( "trace.overhead_frac",
        num ((total -. median !plain) /. median !plain) );
    ]

(* In-process Delta layer: the same mutation cycle the server sees,
   applied to a session with one maintained state per query. *)
let cmd_profile_delta db cycle seconds queries =
  let d0 = load_db db in
  let ddb = Delta.open_db d0 in
  let states =
    List.map (fun q -> Delta.prepare (load_ucq q) ddb) queries
  in
  let updates =
    Array.of_list
      (List.map
         (fun line ->
           let op, rel, tuple = parse_update line in
           { Delta.op; fact = { Delta.rel; tuple } })
         (read_lines cycle))
  in
  let apply_us = ref [] and maint = Hashtbl.create 3 in
  let reads = ref 0 and maintained = ref 0 in
  let deadline = now () +. seconds in
  let i = ref 0 in
  while now () < deadline || !i < Array.length updates do
    let u = updates.(!i mod Array.length updates) in
    incr i;
    let r, ms =
      timed (fun () ->
          match Delta.apply ddb u with
          | Ok r -> r
          | Error e -> failwith (Ucqc_error.to_string e))
    in
    apply_us := (ms *. 1000.) :: !apply_us;
    List.iter
      (fun st ->
        let tier = Tier.to_string (Delta.effective_tier st) in
        let (), ms = timed (fun () -> Delta.apply_state st ddb r) in
        Hashtbl.replace maint tier
          (ms :: Option.value ~default:[] (Hashtbl.find_opt maint tier));
        if tier <> "C" then begin
          incr reads;
          match Delta.maintained_count st ddb with
          | Some (_, Delta.Maintained) -> incr maintained
          | _ -> ()
        end)
      states
  done;
  let tier t =
    ( "delta.maintain_ms." ^ t,
      num (median (Option.value ~default:[] (Hashtbl.find_opt maint t))) )
  in
  json
    [
      ("delta.apply_us", num (median !apply_us));
      tier "A";
      tier "B";
      tier "C";
      ( "delta.maintained_frac",
        num (float_of_int !maintained /. float_of_int (max 1 !reads)) );
      ( "delta.degraded_states",
        inum
          (List.length (List.filter (fun st -> Delta.degraded st <> None) states))
      );
      ( "tiers",
        Trace_json.Arr
          (List.map
             (fun st -> Trace_json.Str (Tier.to_string (Delta.effective_tier st)))
             states) );
    ]

(* Loading a served database, and the walk the server's post-request
   snapshot does over it ([Structure.num_tuples]). *)
let cmd_profile_load db =
  let dtext = read_file db in
  let (d, _), parse_ms = timed (fun () -> Parse.database dtext) in
  let walks =
    List.init 201 (fun _ ->
        let n, ms = timed (fun () -> Structure.num_tuples d) in
        ignore (Sys.opaque_identity n);
        ms *. 1000.)
  in
  json
    [
      ("frontend.db_parse_ms", num parse_ms);
      ("frontend.db_tuples", inum (Structure.num_tuples d));
      ("server.snapshot_us", num (median walks));
    ]

(* Replay recorded frames through the server's own framing, request
   parsing and response rendering, with no socket in between. *)
let cmd_replay frames =
  let lines = read_lines frames in
  let reqs, resps =
    List.partition_map
      (fun l ->
        match String.index_opt l ' ' with
        | Some i when String.sub l 0 i = ">" ->
            Left (String.sub l (i + 1) (String.length l - i - 1))
        | Some i -> Right (String.sub l (i + 1) (String.length l - i - 1))
        | None -> failwith "bad frame line")
      lines
  in
  let responses =
    List.map
      (fun line ->
        match Trace_json.parse line with
        | Trace_json.Obj fields ->
            Protocol.make_response Protocol.Ok_
              (List.filter
                 (fun (k, _) -> k <> "status" && k <> "code" && k <> "id")
                 fields)
        | _ -> failwith "response is not an object")
      resps
  in
  let reps = 200 in
  let per_item f items =
    let n = List.length items in
    let samples =
      List.init reps (fun _ ->
          let (), ms = timed (fun () -> List.iter f items) in
          ms *. 1000. /. float_of_int (max 1 n))
    in
    median samples
  in
  let framer = Framer.create ~max_frame_bytes:1048576 () in
  let bytes = List.map (fun r -> Bytes.of_string (r ^ "\n")) reqs in
  json
    [
      ( "server.framer_us",
        num
          (per_item
             (fun b ->
               ignore (Framer.feed framer b ~off:0 ~len:(Bytes.length b)))
             bytes) );
      ( "server.parse_us",
        num (per_item (fun r -> ignore (Protocol.parse_request r)) reqs) );
      ( "server.render_us",
        num (per_item (fun r -> ignore (Protocol.to_string r)) responses) );
    ]

(* ------------------------------------------------------------------ *)
(* Closed-loop load generator                                         *)
(* ------------------------------------------------------------------ *)

(* Between ops, at most every [probe_every] seconds, the client times
   the short sentinel loop; each op is written out with the latest
   probe so run.py can rescale it to a fixed machine speed. *)
let probe_every = 0.1

(* A plan line is "<op>\t<kind>\t<expect>\t<frame>": consecutive lines
   with the same <op> form one op, and the plan is replayed from the
   start when it runs out (plans are closed cycles).  <kind> is "read"
   (expect = the exact count), "insert" or "delete" (expect = "applied"). *)
type req = { op : int; kind : string; expect : string; frame : string }

let load_plan path =
  let reqs =
    List.map
      (fun l ->
        match String.split_on_char '\t' l with
        | [ op; kind; expect; frame ] ->
            { op = int_of_string op; kind; expect; frame }
        | _ -> failwith ("bad plan line: " ^ l))
      (read_lines path)
  in
  let rec group acc cur = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | r :: rest -> (
        match cur with
        | c :: _ when c.op <> r.op -> group (List.rev cur :: acc) [ r ] rest
        | _ -> group acc (r :: cur) rest)
  in
  Array.of_list (List.map Array.of_list (group [] [] reqs))

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let roundtrip (ic, oc) frame =
  output_string oc frame;
  output_char oc '\n';
  flush oc;
  input_line ic

let str_field k j =
  match Trace_json.member k j with Some (Trace_json.Str s) -> s | _ -> "-"

let num_field k j =
  match Trace_json.member k j with Some (Trace_json.Num f) -> f | _ -> nan

(* Is [resp] the right answer to [r]?  A response counts as failed unless
   its status is ok and it carries exactly the expected outcome. *)
let correct r resp =
  str_field "status" resp = "ok"
  &&
  match Trace_json.member "result" resp with
  | None -> false
  | Some res -> (
      match r.kind with
      | "read" -> (
          match Trace_json.member "count" res with
          | Some (Trace_json.Num f) -> Printf.sprintf "%.0f" f = r.expect
          | _ -> false)
      | _ -> Trace_json.member "applied" res = Some (Trace_json.Bool true))

let cmd_loadgen sock plan out warmup seconds trace =
  let plan = load_plan plan in
  let conn = connect sock in
  let stats () = roundtrip conn {|{"op":"stats","id":"stats"}|} in
  let stats_before = stats () in
  let reqs_oc = open_out (Filename.concat out "requests.tsv") in
  let ops_oc = open_out (Filename.concat out "ops.tsv") in
  let frames_oc = open_out (Filename.concat out "frames.txt") in
  let done_ = ref 0 and ops = ref 0 and failed = ref 0 in
  let warm = ref 0 and warm_failed = ref 0 in
  let t_measure = now () +. warmup in
  let t_end = t_measure +. seconds in
  let plain_ms = ref [] and traced_ms = ref [] in
  let probe = ref (ref_ms probe_iters) and t_probe = ref (now ()) in
  while now () < t_end do
    if now () -. !t_probe > probe_every then begin
      probe := ref_ms probe_iters;
      t_probe := now ()
    end;
    let measuring = now () >= t_measure in
    (* in a traced run, alternate ops with and without
       the per-response field extraction: the two medians give the
       tracing overhead *)
    let record = trace && !ops mod 2 = 1 in
    let ok = ref true in
    let t0 = now () in
    Array.iter
      (fun r ->
        let q0 = now () in
        let line = roundtrip conn r.frame in
        let rtt = (now () -. q0) *. 1000. in
        let resp = Trace_json.parse line in
        let good = correct r resp in
        if not good then ok := false;
        if measuring && (record || not trace) then begin
          let res =
            Option.value ~default:Trace_json.Null
              (Trace_json.member "result" resp)
          in
          Printf.fprintf reqs_oc "%s\t%.6f\t%.6f\t%.6f\t%s\t%s\t%s\t%d\n"
            r.kind rtt (num_field "queue_ms" resp) (num_field "elapsed_ms" resp)
            (str_field "cache" resp) (str_field "source" res)
            (str_field "tier" res) (Bool.to_int good)
        end;
        if measuring && trace && !ops < 64 then
          Printf.fprintf frames_oc "> %s\n< %s\n" r.frame line)
      plan.(!done_ mod Array.length plan);
    incr done_;
    let ms = (now () -. t0) *. 1000. in
    if measuring then begin
      incr ops;
      if not !ok then incr failed;
      Printf.fprintf ops_oc "%.6f\t%d\t%.6f\n" ms (Bool.to_int !ok) !probe;
      if trace then
        if record then traced_ms := ms :: !traced_ms
        else plain_ms := ms :: !plain_ms
    end
    else begin
      incr warm;
      if not !ok then incr warm_failed
    end
  done;
  let stats_after = stats () in
  List.iter close_out [ reqs_oc; ops_oc; frames_oc ];
  json
    [
      ("attempted", inum !ops);
      ("failed", inum !failed);
      ("warmup_ops", inum !warm);
      ("warmup_failed", inum !warm_failed);
      ("ops_done", inum !done_);
      ("plain_p50_ms", num (median !plain_ms));
      ("traced_p50_ms", num (median !traced_ms));
      ("stats_before", Trace_json.parse stats_before);
      ("stats_after", Trace_json.parse stats_after);
    ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "ref" ] -> cmd_ref sentinel_iters
  | [ "probe" ] -> cmd_ref probe_iters
  | "oracle" :: db :: queries -> cmd_oracle db queries
  | "oracle-cycle" :: db :: cycle :: queries -> cmd_oracle_cycle db cycle queries
  | [ "profile-count"; q; db; s; expect ] ->
      cmd_profile_count q db (float_of_string s) expect
  | "profile-delta" :: db :: cycle :: s :: queries ->
      cmd_profile_delta db cycle (float_of_string s) queries
  | [ "profile-load"; db ] -> cmd_profile_load db
  | [ "replay"; frames ] -> cmd_replay frames
  | [ "loadgen"; sock; plan; out; warmup; s; trace ] ->
      cmd_loadgen sock plan out (float_of_string warmup) (float_of_string s)
        (trace = "1")
  | _ ->
      prerr_endline "usage: see the header of ucqbench/tool.ml";
      exit 64
