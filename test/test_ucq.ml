(** Tests for UCQs: combined queries (Definition 23), the CQ expansion and
    coefficient function (Definition 25, Lemma 26), and the counting
    algorithms. *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let mkcq n edges free =
  Cq.make (Structure.make sg_e (List.init n (fun i -> i)) [ ("E", edges) ]) free

(* a small quantifier-free union over free variables {0, 1}:
   E(x0, x1)  ∨  E(x1, x0) *)
let psi_sym =
  Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ]; mkcq 2 [ [ 1; 0 ] ] [ 0; 1 ] ]

let test_structure_accessors () =
  Alcotest.(check int) "two disjuncts" 2 (Ucq.length psi_sym);
  Alcotest.(check bool) "qf" true (Ucq.is_quantifier_free psi_sym);
  Alcotest.(check int) "arity" 2 (Ucq.arity psi_sym);
  Alcotest.(check int) "deletion closure" 3
    (List.length (Ucq.deletion_closure psi_sym))

let test_rename_apart () =
  (* two disjuncts ∃y E(x,y) — quantified variables must become disjoint *)
  let q = mkcq 2 [ [ 0; 1 ] ] [ 0 ] in
  let psi = Ucq.make [ q; q ] in
  let universes = List.map Structure.universe (Ucq.disjunct_structures psi) in
  (match universes with
  | [ u1; u2 ] ->
      Alcotest.(check (list int)) "shared part is X" [ 0 ]
        (Listx.inter_sorted u1 u2)
  | _ -> Alcotest.fail "expected two disjuncts");
  Alcotest.(check int) "one quantified var each" 2 (Ucq.num_quantified psi)

let test_combined () =
  let combined = Ucq.combined_all psi_sym in
  (* ∧(Ψ) = E(x0,x1) ∧ E(x1,x0) *)
  Alcotest.(check int) "combined tuples" 2 (Structure.num_tuples (Cq.structure combined));
  Alcotest.(check bool) "restriction to singleton" true
    (Cq.equal (Ucq.combined psi_sym [ 0 ]) (Ucq.disjunct psi_sym 0))

let test_count_union_semantics () =
  let db = Generators.random_digraph ~seed:21 6 10 in
  (* answers = ordered pairs connected in either direction *)
  let expected = Ucq.count_naive psi_sym db in
  Alcotest.(check int) "inclusion-exclusion" expected
    (Ucq.count_inclusion_exclusion psi_sym db);
  Alcotest.(check int) "via expansion" expected (Ucq.count_via_expansion psi_sym db)

let test_coefficients_sym () =
  (* ∧(Ψ|{0}) = E(x0,x1), ∧(Ψ|{1}) = E(x1,x0), ∧(Ψ|{0,1}) = both.
     The two singletons are isomorphic (swap x0, x1), so c(edge) = 2 and
     c(double edge) = -1. *)
  let terms = Ucq.expansion psi_sym in
  Alcotest.(check int) "two classes" 2 (List.length terms);
  let coeffs =
    List.sort compare
      (List.map (fun (t : Ucq.expansion_term) -> t.coefficient) terms)
  in
  Alcotest.(check (list int)) "coefficients" [ -1; 2 ] coeffs

let test_coefficient_lookup () =
  let edge = mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ] in
  Alcotest.(check int) "c(edge) = 2" 2 (Ucq.coefficient psi_sym edge);
  let both = mkcq 2 [ [ 0; 1 ]; [ 1; 0 ] ] [ 0; 1 ] in
  Alcotest.(check int) "c(double) = -1" (-1) (Ucq.coefficient psi_sym both);
  let triangle = mkcq 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] [ 0; 1; 2 ] in
  Alcotest.(check int) "c(unrelated) = 0" 0 (Ucq.coefficient psi_sym triangle)

let test_lemma26_identity () =
  (* ans(Ψ → D) must equal Σ c_Ψ(A) · ans(A → D) for every database *)
  List.iter
    (fun seed ->
      let db = Generators.random_digraph ~seed 5 8 in
      Alcotest.(check int)
        (Printf.sprintf "identity on seed %d" seed)
        (Ucq.count_naive psi_sym db)
        (List.fold_left
           (fun acc (t : Ucq.expansion_term) ->
             acc
             + t.coefficient
               * Counting.count ~strategy:Counting.Naive t.representative db)
           0 (Ucq.expansion psi_sym)))
    [ 4; 5; 6 ]

let test_quantified_union () =
  (* (∃y. E(x,y)) ∨ (∃y. E(y,x)): vertices with out- or in-edges *)
  let psi = Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0 ]; mkcq 2 [ [ 1; 0 ] ] [ 0 ] ] in
  List.iter
    (fun seed ->
      let db = Generators.random_digraph ~seed 6 9 in
      let expected = Ucq.count_naive psi db in
      Alcotest.(check int) "IE" expected (Ucq.count_inclusion_exclusion psi db);
      Alcotest.(check int) "expansion" expected (Ucq.count_via_expansion psi db))
    [ 7; 8 ]

let test_paper_psi1_psi2 () =
  let psi1, ktk1 = Paper_examples.psi1 () in
  let psi2, _ = Paper_examples.psi2 () in
  Alcotest.(check int) "psi1 has 4 disjuncts" 4 (Ucq.length psi1);
  Alcotest.(check int) "psi2 has 4 disjuncts" 4 (Ucq.length psi2);
  (* ∧(Ψ1) = ∧(Ψ2) = K_3^4 *)
  let combined1 = Ucq.combined_all psi1 in
  Alcotest.(check bool) "combined is K_3^4" true
    (Struct_iso.isomorphic (Cq.structure combined1) ktk1.Ktk.structure);
  (* Lemma 48 item 2: c_Ψ(∧Ψ) = -χ̂ : for Δ1, -(-2) = 2; for Δ2, 0 *)
  Alcotest.(check int) "c_psi1(K_3^4) = 2" 2
    (Ucq.coefficient psi1 combined1);
  Alcotest.(check int) "c_psi2(K_3^4) = 0" 0
    (Ucq.coefficient psi2 (Ucq.combined_all psi2));
  (* Lemma 48 item 5: all disjuncts acyclic, self-join-free, binary *)
  Alcotest.(check bool) "psi1 union of acyclic" true (Ucq.is_union_of_acyclic psi1);
  Alcotest.(check bool) "psi1 union of sjf" true
    (Ucq.is_union_of_self_join_free psi1);
  Alcotest.(check int) "binary" 2 (Ucq.arity psi1);
  (* Lemma 48 item 3: every non-combined support term is acyclic *)
  List.iter
    (fun (t : Ucq.expansion_term) ->
      if not (Cq.isomorphic t.representative combined1) then
        Alcotest.(check bool) "support term acyclic" true
          (Cq.is_acyclic t.representative))
    (Ucq.support psi1)

let test_expansion_distinct_classes () =
  (* three pairwise non-isomorphic disjuncts: all 2^3 - 1 = 7 combined
     queries fall in distinct classes *)
  let psi =
    Ucq.make
      [
        mkcq 3 [ [ 0; 1 ] ] [ 0; 1; 2 ];
        mkcq 3 [ [ 1; 2 ] ] [ 0; 1; 2 ];
        mkcq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 1; 2 ];
      ]
  in
  (* two classes: the single-edge disjuncts are isomorphic (the free set
     maps setwise), and every J containing disjunct 3 or both 1 and 2
     yields the path.  Edge: +1 +1 = 2; path: +1 (J={3}) - 3 (pairs) + 1
     (J={1,2,3}) = -1. *)
  let terms = Ucq.expansion psi in
  let support = Ucq.support psi in
  Alcotest.(check int) "two classes" 2 (List.length terms);
  Alcotest.(check int) "support size" 2 (List.length support);
  let path = mkcq 3 [ [ 0; 1 ]; [ 1; 2 ] ] [ 0; 1; 2 ] in
  Alcotest.(check int) "path coefficient" (-1) (Ucq.coefficient psi path);
  let edge = mkcq 3 [ [ 0; 1 ] ] [ 0; 1; 2 ] in
  Alcotest.(check int) "edge coefficient" 2 (Ucq.coefficient psi edge)

let test_restrict_semantics () =
  let psi =
    Ucq.make
      [
        mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ];
        mkcq 2 [ [ 1; 0 ] ] [ 0; 1 ];
        mkcq 2 [ [ 0; 0 ] ] [ 0; 1 ];
      ]
  in
  let db = Generators.random_digraph ~seed:31 5 9 in
  (* a sub-union counts a subset of the answers *)
  let sub = Ucq.restrict psi [ 0; 2 ] in
  Alcotest.(check bool) "monotone" true
    (Ucq.count_naive sub db <= Ucq.count_naive psi db);
  Alcotest.(check int) "sub union agree" (Ucq.count_naive sub db)
    (Ucq.count_via_expansion sub db)

let test_size_and_arity () =
  let psi = Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0 ] ] in
  Alcotest.(check bool) "size positive" true (Ucq.size psi > 0);
  Alcotest.(check int) "arity 2" 2 (Ucq.arity psi)

let test_exhaustive_q_hierarchical () =
  (* single q-hierarchical CQ *)
  let star = Ucq.make [ mkcq 3 [ [ 0; 1 ]; [ 0; 2 ] ] [ 0 ] ] in
  Alcotest.(check bool) "star union" true (Ucq.is_exhaustively_q_hierarchical star);
  (* the union E(x0,x1) ∨ E(x1,x2)-style combined query is the paper's
     non-q-hierarchical path *)
  let path_union =
    Ucq.make
      [
        mkcq 4 [ [ 0; 1 ] ] [ 0; 1; 2; 3 ];
        mkcq 4 [ [ 1; 2 ] ] [ 0; 1; 2; 3 ];
        mkcq 4 [ [ 2; 3 ] ] [ 0; 1; 2; 3 ];
      ]
  in
  Alcotest.(check bool) "path union fails" false
    (Ucq.is_exhaustively_q_hierarchical path_union)

let test_compiled () =
  let psi =
    Ucq.make [ mkcq 2 [ [ 0; 1 ] ] [ 0; 1 ]; mkcq 2 [ [ 1; 0 ] ] [ 0; 1 ] ]
  in
  let c = Ucq.compile psi in
  Alcotest.(check int) "support preserved" 2
    (List.length (Ucq.compiled_support c));
  List.iter
    (fun seed ->
      let db = Generators.random_digraph ~seed 6 12 in
      Alcotest.(check int)
        (Printf.sprintf "compiled count seed %d" seed)
        (Ucq.count_via_expansion psi db)
        (Ucq.count_compiled c db))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Expansion grouping against the quadratic reference                 *)
(* ------------------------------------------------------------------ *)

(* The grouping [Ucq.expansion] used before it bucketed cores by an
   isomorphism invariant, kept as the oracle: scan every class found so
   far, in order of first appearance, append a new class at the end.
   [tests] counts the pairwise [Cq.equal]/[Cq.isomorphic] tests. *)
let reference_expansion ?(tests = ref 0) (psi : Ucq.t) :
    (Cq.t * int) list =
  let classes : (Cq.t * int ref) list ref = ref [] in
  List.iter
    (fun j ->
      let core = Cq.sharp_core (Ucq.combined psi j) in
      let sign = if List.length j mod 2 = 1 then 1 else -1 in
      let rec insert = function
        | [] -> classes := !classes @ [ (core, ref sign) ]
        | (rep, coeff) :: rest ->
            incr tests;
            if Cq.equal rep core || Cq.isomorphic rep core then
              coeff := !coeff + sign
            else insert rest
      in
      insert !classes)
    (Combinat.nonempty_subsets (Ucq.length psi));
  List.map (fun (rep, coeff) -> (rep, !coeff)) !classes

let same_as_reference (psi : Ucq.t) (terms : Ucq.expansion_term list) : bool
    =
  let reference = reference_expansion psi in
  List.length reference = List.length terms
  && List.for_all2
       (fun (rep, coeff) (t : Ucq.expansion_term) ->
         Cq.equal rep t.representative && coeff = t.coefficient)
       reference terms

let sg_ef = Signature.make [ Signature.symbol "E" 2; Signature.symbol "F" 2 ]

(* swap the free variables 0 and 1: an isomorphic, usually unequal copy *)
let swap_free (q : Cq.t) : Cq.t =
  let swap v = if v = 0 then 1 else if v = 1 then 0 else v in
  Cq.make (Structure.rename (Cq.structure q) swap) (Cq.free q)

(* A random union plus two copies of its first disjunct: [Ucq.make]
   renames the quantified variables of the verbatim copy apart, and the
   second copy swaps the free variables, so the expansion meets cores
   that are isomorphic but not equal as well as equal ones. *)
let random_union_with_twins seed : Ucq.t =
  let psi =
    Qgen.random_ucq ~seed ~max_disjuncts:3 ~max_vars:4 ~max_atoms:3 sg_ef
  in
  let first = Ucq.disjunct psi 0 in
  Ucq.make (Ucq.disjuncts psi @ [ first; swap_free first ])

let pools = lazy (List.map (fun jobs -> Pool.create ~jobs ()) [ 1; 2; 4 ])

let qcheck_expansion_grouping =
  QCheck.Test.make ~name:"bucketed expansion = quadratic reference grouping"
    ~count:80 (QCheck.int_range 0 100_000) (fun seed ->
      let psi = random_union_with_twins seed in
      List.for_all
        (fun pool -> same_as_reference psi (Ucq.expansion ~pool psi))
        (Lazy.force pools))

let test_grouping_merges_isomorphic () =
  (* the symmetric pair's singletons are isomorphic but not equal: the
     reference merges them, so must the buckets *)
  Alcotest.(check bool) "psi_sym" true
    (same_as_reference psi_sym (Ucq.expansion psi_sym));
  let merged =
    List.exists
      (fun seed ->
        let psi = random_union_with_twins seed in
        let cores =
          List.map
            (fun j -> Cq.sharp_core (Ucq.combined psi j))
            (Combinat.nonempty_subsets (Ucq.length psi))
        in
        List.exists
          (fun a ->
            List.exists
              (fun b -> (not (Cq.equal a b)) && Cq.isomorphic a b)
              cores)
          cores)
      (List.init 10 Fun.id)
  in
  Alcotest.(check bool) "generator yields isomorphic, unequal cores" true
    merged

(* The planted wide union of the end-to-end benchmark: nine kept
   disjuncts, each with its own relation R<k>, so the 511 combined
   queries are pairwise inequivalent, plus three disjuncts the optimizer
   drops (a duplicate of the first, two subsumed ones). *)
let wide_union_text =
  "(x) :- R0(x, a0) ; R1(a1, x), E(a1, b1) ; R2(x, a2), E(a2, b2), E(b2, x) \
   ; R3(x, a3), E(a3, b3), E(b3, c3) ; R4(a4, x), E(a4, b4), E(b4, a4) ; \
   R5(x, a5), R5(a5, b5) ; R6(x, a6), E(x, b6), E(a6, b6) ; R7(a7, x), \
   E(a7, b7), E(b7, c7), E(c7, a7) ; R8(x, a8), E(a8, a8) ; R0(x, z9) ; \
   R1(a10, x), E(a10, b10), E(b10, c10) ; R3(x, a11), E(a11, b11), \
   E(b11, c11), E(c11, x)"

let wide_union () =
  match Parse.ucq_result wide_union_text with
  | Ok (psi, _) -> psi
  | Error e -> Alcotest.failf "parse failed: %s" (Ucqc_error.to_string e)

let test_wide_union_one_expansion () =
  let psi = wide_union () in
  let db =
    let sg = Structure.signature (Cq.structure (Ucq.disjunct psi 0)) in
    let rels =
      List.map
        (fun (s : Signature.symbol) ->
          ( s.Signature.name,
            List.init 10 (fun i -> [ (3 * i) mod 7; ((5 * i) + 1) mod 7 ]) ))
        sg
    in
    Structure.make sg (List.init 7 Fun.id) rels
  in
  let expected = Ucq.count_naive psi db in
  Telemetry.reset ();
  Telemetry.enable ();
  let outcome =
    Runner.count ~optimize:true ~select:true ~budget:(Budget.unlimited ()) psi
      db
  in
  Telemetry.disable ();
  let calls name =
    match
      List.find_opt
        (fun (s : Telemetry.span_stat) -> s.Telemetry.sname = name)
        (Telemetry.span_stats ())
    with
    | Some s -> s.Telemetry.calls
    | None -> 0
  in
  let counter name = List.assoc name (Telemetry.counters_snapshot ()) in
  let expansions = calls "ucq.expansion" in
  let iso_tests = counter "ucq.expansion.iso_tests" in
  let classes = counter "ucq.expansion.classes" in
  Telemetry.reset ();
  (match outcome with
  | Ok (Runner.Exact n) -> Alcotest.(check int) "count" expected n
  | _ -> Alcotest.fail "expected an exact count");
  Alcotest.(check int) "one ucq.expansion span" 1 expansions;
  Alcotest.(check int) "511 classes" 511 classes;
  Alcotest.(check int) "no pairwise isomorphism test" 0 iso_tests;
  (* the quadratic grouping paid one test per pair of the 511 classes *)
  let tests = ref 0 in
  let optimized = (Optimize.run psi).Optimize.optimized in
  ignore (reference_expansion ~tests optimized);
  Alcotest.(check int) "reference grouping: 511 * 510 / 2 tests" 130_305
    !tests

let qcheck_counting =
  let open QCheck in
  let gen_disjunct =
    Gen.(>>=) (Gen.int_range 1 3) (fun extra ->
        Gen.map
          (fun pairs ->
            List.map (fun (u, v) -> [ u mod (2 + extra); v mod (2 + extra) ]) pairs)
          (Gen.list_size (Gen.int_range 1 3)
             (Gen.pair (Gen.int_range 0 4) (Gen.int_range 0 4))))
  in
  let gen_ucq =
    make
      ~print:(fun dss ->
        String.concat " | "
          (List.map
             (fun ds ->
               String.concat ","
                 (List.map
                    (fun t -> "E" ^ String.concat "" (List.map string_of_int t))
                    ds))
             dss))
      (Gen.list_size (Gen.int_range 1 3) gen_disjunct)
  in
  let build dss =
    (* free variables {0, 1}; everything above is quantified *)
    Ucq.make
      (List.map
         (fun edges ->
           let n = 1 + List.fold_left (fun acc t -> List.fold_left max acc t) 1 edges in
           mkcq n edges [ 0; 1 ])
         dss)
  in
  [
    Test.make ~name:"IE and expansion counting agree with naive" ~count:60
      (pair gen_ucq (int_range 0 500))
      (fun (dss, seed) ->
        let psi = build dss in
        let db = Generators.random_digraph ~seed 4 8 in
        let naive = Ucq.count_naive psi db in
        Ucq.count_inclusion_exclusion psi db = naive
        && Ucq.count_via_expansion psi db = naive);
    Test.make ~name:"big counting agrees with int counting" ~count:30
      (pair gen_ucq (int_range 0 500))
      (fun (dss, seed) ->
        let psi = build dss in
        let db = Generators.random_digraph ~seed 4 8 in
        Bigint.to_int_opt (Ucq.count_inclusion_exclusion_big psi db)
        = Some (Ucq.count_inclusion_exclusion psi db)
        && Bigint.to_int_opt (Ucq.count_via_expansion_big psi db)
          = Some (Ucq.count_via_expansion psi db));
  ]

let suite =
  [
    ( "ucq",
      [
        Alcotest.test_case "accessors" `Quick test_structure_accessors;
        Alcotest.test_case "rename apart" `Quick test_rename_apart;
        Alcotest.test_case "combined queries" `Quick test_combined;
        Alcotest.test_case "union counting semantics" `Quick test_count_union_semantics;
        Alcotest.test_case "coefficients (symmetric pair)" `Quick test_coefficients_sym;
        Alcotest.test_case "coefficient lookup" `Quick test_coefficient_lookup;
        Alcotest.test_case "Lemma 26 identity" `Quick test_lemma26_identity;
        Alcotest.test_case "quantified unions" `Quick test_quantified_union;
        Alcotest.test_case "paper examples psi1/psi2" `Quick test_paper_psi1_psi2;
        Alcotest.test_case "expansion classes" `Quick test_expansion_distinct_classes;
        Alcotest.test_case "restrict semantics" `Quick test_restrict_semantics;
        Alcotest.test_case "size and arity" `Quick test_size_and_arity;
        Alcotest.test_case "compiled expansions" `Quick test_compiled;
        Alcotest.test_case "exhaustive q-hierarchicality" `Quick
          test_exhaustive_q_hierarchical;
        Alcotest.test_case "grouping merges isomorphic cores" `Quick
          test_grouping_merges_isomorphic;
        Alcotest.test_case "wide union: one expansion, no iso test" `Quick
          test_wide_union_one_expansion;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          (qcheck_expansion_grouping :: qcheck_counting) );
  ]
