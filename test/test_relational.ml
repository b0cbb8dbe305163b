(** Tests for signatures, relational structures, Gaifman graphs, tensor
    products and structure isomorphism. *)

let sg_e = Signature.make [ Signature.symbol "E" 2 ]

let triangle =
  Structure.make sg_e [ 0; 1; 2 ] [ ("E", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]) ]

let path3 =
  Structure.make sg_e [ 0; 1; 2 ] [ ("E", [ [ 0; 1 ]; [ 1; 2 ] ]) ]

let test_signature () =
  Alcotest.(check int) "arity" 2 (Signature.arity sg_e);
  Alcotest.(check bool) "mem" true (Signature.mem sg_e "E");
  Alcotest.(check bool) "not mem" false (Signature.mem sg_e "F");
  let sg2 = Signature.make [ Signature.symbol "E" 2; Signature.symbol "P" 1 ] in
  Alcotest.(check bool) "subset" true (Signature.subset sg_e sg2);
  Alcotest.(check int) "union size" 2 (Signature.size (Signature.union sg_e sg2));
  Alcotest.check_raises "duplicate symbol rejected"
    (Invalid_argument "Signature.make: duplicate symbol E") (fun () ->
      ignore (Signature.make [ Signature.symbol "E" 2; Signature.symbol "E" 1 ]))

let test_structure_invariants () =
  Alcotest.(check (list int)) "universe sorted" [ 0; 1; 2 ] (Structure.universe triangle);
  (* |A| = |sig| + |U| + Σ |R|·arity = 1 + 3 + 6 *)
  Alcotest.(check int) "encoding size" 10 (Structure.size triangle);
  Alcotest.(check int) "tuples" 3 (Structure.num_tuples triangle);
  Alcotest.check_raises "arity mismatch rejected"
    (Invalid_argument "Structure.make: arity mismatch in E") (fun () ->
      ignore (Structure.make sg_e [ 0 ] [ ("E", [ [ 0 ] ]) ]))

let test_union_induced () =
  let u = Structure.union triangle path3 in
  Alcotest.(check int) "union tuples (dedup)" 3 (Structure.num_tuples u);
  let ind = Structure.induced triangle [ 0; 1 ] in
  Alcotest.(check int) "induced tuples" 1 (Structure.num_tuples ind);
  Alcotest.(check bool) "substructure" true (Structure.is_substructure ind triangle);
  Alcotest.(check bool) "not substructure" false
    (Structure.is_substructure triangle ind)

let test_isolated () =
  let s = Structure.make sg_e [ 0; 1; 5 ] [ ("E", [ [ 0; 1 ] ]) ] in
  Alcotest.(check (list int)) "isolated" [ 5 ] (Structure.isolated_elements s)

let test_gaifman () =
  let g, mapping = Structure.gaifman triangle in
  Alcotest.(check int) "gaifman triangle edges" 3 (Graph.num_edges g);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2 |] mapping;
  (* a ternary tuple spans a clique in the Gaifman graph *)
  let sg3 = Signature.make [ Signature.symbol "T" 3 ] in
  let s = Structure.make sg3 [ 0; 1; 2 ] [ ("T", [ [ 0; 1; 2 ] ]) ] in
  let g3, _ = Structure.gaifman s in
  Alcotest.(check int) "ternary tuple clique" 3 (Graph.num_edges g3);
  Alcotest.(check int) "treewidth of triangle" 2 (Structure.treewidth triangle);
  Alcotest.(check int) "treewidth of path" 1 (Structure.treewidth path3)

let test_tensor () =
  let prod, _ = Structure.tensor path3 path3 in
  Alcotest.(check int) "tensor universe" 9 (Structure.universe_size prod);
  Alcotest.(check int) "tensor tuples" 4 (Structure.num_tuples prod);
  (* multiplicativity of hom counts over tensor products (Theorem 28) *)
  let query = path3 in
  let d1 = triangle and d2 = path3 in
  let t, _ = Structure.tensor d1 d2 in
  Alcotest.(check int) "hom multiplicative"
    (Hom.count query d1 * Hom.count query d2)
    (Hom.count query t)

let test_struct_iso () =
  let tri2 =
    Structure.make sg_e [ 5; 7; 9 ] [ ("E", [ [ 5; 7 ]; [ 7; 9 ]; [ 9; 5 ] ]) ]
  in
  Alcotest.(check bool) "triangles isomorphic" true (Struct_iso.isomorphic triangle tri2);
  Alcotest.(check bool) "triangle != path" false (Struct_iso.isomorphic triangle path3);
  (* directed path 0->1->2: the identity of endpoints matters under
     protected sets *)
  Alcotest.(check bool) "protected endpoints ok" true
    (Struct_iso.isomorphic ~protected_:[ ([ 0 ], [ 0 ]) ] path3 path3);
  Alcotest.(check bool) "protected mismatch fails" false
    (Struct_iso.isomorphic ~protected_:[ ([ 0 ], [ 2 ]) ] path3 path3)

let test_rename () =
  let renamed = Structure.rename path3 (fun v -> v + 10) in
  Alcotest.(check (list int)) "renamed universe" [ 10; 11; 12 ] (Structure.universe renamed);
  Alcotest.(check bool) "isomorphic after rename" true
    (Struct_iso.isomorphic path3 renamed)

let qcheck_tensor =
  let open QCheck in
  let gen_structure =
    make
      ~print:(fun (n, edges) -> Printf.sprintf "n=%d |E|=%d" n (List.length edges))
      (Gen.(>>=) (Gen.int_range 1 4) (fun n ->
           Gen.map
             (fun pairs -> (n, List.map (fun (u, v) -> [ u mod n; v mod n ]) pairs))
             (Gen.list_size (Gen.int_range 0 6)
                (Gen.pair (Gen.int_range 0 3) (Gen.int_range 0 3)))))
  in
  let build (n, edges) =
    Structure.make sg_e (List.init n (fun i -> i)) [ ("E", edges) ]
  in
  [
    Test.make ~name:"tensor multiplicativity of hom counts" ~count:60
      (pair gen_structure gen_structure) (fun (s1, s2) ->
        let d1 = build s1 and d2 = build s2 in
        let t, _ = Structure.tensor d1 d2 in
        let q = path3 in
        Hom.count q t = Hom.count q d1 * Hom.count q d2);
    Test.make ~name:"isomorphism invariant under renaming" ~count:60 gen_structure
      (fun s ->
        let d = build s in
        Struct_iso.isomorphic d (Structure.rename d (fun v -> 100 - v)));
  ]

(* ------------------------------------------------------------------ *)
(* Single-relation mutations and the carried tuple count              *)
(* ------------------------------------------------------------------ *)

let sg_ep = Signature.make [ Signature.symbol "E" 2; Signature.symbol "P" 1 ]

type mutation =
  | Add of string * Structure.tuple list
  | Remove of string * Structure.tuple list

(* Elements range over 0..6 while base universes stop at 0..3, so adds
   bring new universe elements; the small range makes duplicates,
   present tuples and absent tuples all common. *)
let gen_tuples (name : string) : Structure.tuple list QCheck.Gen.t =
  let arity = Signature.arity_of sg_ep name in
  QCheck.Gen.(list_size (int_range 0 4) (list_repeat arity (int_range 0 6)))

let gen_base : Structure.t QCheck.Gen.t =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    let elem = int_range 0 (n - 1) in
    list_size (int_range 0 8) (list_repeat 2 elem) >>= fun e ->
    list_size (int_range 0 3) (list_repeat 1 elem) >>= fun p ->
    return (Structure.make sg_ep (List.init n Fun.id) [ ("E", e); ("P", p) ]))

let gen_mutation : mutation QCheck.Gen.t =
  QCheck.Gen.(
    oneofl [ "E"; "P" ] >>= fun name ->
    gen_tuples name >>= fun ts -> oneofl [ Add (name, ts); Remove (name, ts) ])

let print_mutation (m : mutation) : string =
  let op, n, ts =
    match m with Add (n, ts) -> ("+", n, ts) | Remove (n, ts) -> ("-", n, ts)
  in
  Printf.sprintf "%s%s{%s}" op n
    (String.concat "; "
       (List.map (fun t -> String.concat "," (List.map string_of_int t)) ts))

let print_structure (a : Structure.t) : string =
  Format.asprintf "%a" Structure.pp a

let arb_run =
  QCheck.make
    ~print:(fun (a, ms) ->
      print_structure a ^ " then "
      ^ String.concat " / " (List.map print_mutation ms))
    QCheck.Gen.(pair gen_base (list_size (int_range 0 8) gen_mutation))

(* The definitions the single-relation paths replace: [make] over the
   concatenated relations (re-sorting and re-validating everything), and
   a filter over the relation. *)
let add_via_make (a : Structure.t) (name : string) (ts : Structure.tuple list)
    : Structure.t =
  Structure.make (Structure.signature a)
    (Structure.universe a @ List.concat ts)
    ((name, Structure.relation a name @ ts)
    :: List.filter (fun (n, _) -> n <> name) (Structure.relations a))

let remove_via_filter (a : Structure.t) (name : string)
    (ts : Structure.tuple list) : Structure.t =
  Structure.make (Structure.signature a) (Structure.universe a)
    (List.map
       (fun (n, rel) ->
         (n, if n = name then List.filter (fun t -> not (List.mem t ts)) rel
             else rel))
       (Structure.relations a))

let step (a : Structure.t) : mutation -> Structure.t = function
  | Add (n, ts) -> Structure.add_tuples a n ts
  | Remove (n, ts) -> Structure.remove_tuples a n ts

let counted (a : Structure.t) : bool =
  Structure.num_tuples a
  = List.fold_left
      (fun acc (_, ts) -> acc + List.length ts)
      0 (Structure.relations a)

let sign (c : int) : int = compare c 0

let qcheck_mutations =
  let open QCheck in
  [
    Test.make ~name:"num_tuples equals the summed relation lengths"
      ~count:300 arb_run (fun (a, ms) ->
        counted a
        && fst
             (List.fold_left
                (fun (ok, a) m ->
                  let a' = step a m in
                  (ok && counted a', a'))
                (true, a) ms));
    Test.make ~name:"add/remove_tuples agree with the make-based definitions"
      ~count:300 arb_run (fun (a, ms) ->
        ignore
          (List.fold_left
            (fun (a, model) m ->
              let model' =
                match m with
                | Add (n, ts) -> add_via_make model n ts
                | Remove (n, ts) -> remove_via_filter model n ts
              in
              let a' = step a m in
              if not (Structure.equal a' model') then
                Test.fail_reportf "diverged after %s:@ got %s@ want %s"
                  (print_mutation m) (print_structure a')
                  (print_structure model');
              (a', model'))
            (a, a) ms);
        true);
    Test.make ~name:"compare_t orders as (signature, universe, relations)"
      ~count:300 (pair arb_run arb_run)
      (fun ((a, ma), (b, mb)) ->
        let a = List.fold_left step a ma and b = List.fold_left step b mb in
        let key s =
          (Structure.signature s, Structure.universe s, Structure.relations s)
        in
        let rebuilt s =
          let sg, u, rels = key s in
          Structure.make sg u rels
        in
        sign (Structure.compare_t a b) = sign (compare (key a) (key b))
        && Structure.compare_t a (rebuilt a) = 0
        && Structure.compare_t (rebuilt b) b = 0);
  ]

let suite =
  [
    ( "relational",
      [
        Alcotest.test_case "signature" `Quick test_signature;
        Alcotest.test_case "structure invariants" `Quick test_structure_invariants;
        Alcotest.test_case "union and induced" `Quick test_union_induced;
        Alcotest.test_case "isolated elements" `Quick test_isolated;
        Alcotest.test_case "gaifman graphs" `Quick test_gaifman;
        Alcotest.test_case "tensor product" `Quick test_tensor;
        Alcotest.test_case "structure isomorphism" `Quick test_struct_iso;
        Alcotest.test_case "rename" `Quick test_rename;
      ]
      @ List.map QCheck_alcotest.to_alcotest (qcheck_tensor @ qcheck_mutations)
    );
  ]
