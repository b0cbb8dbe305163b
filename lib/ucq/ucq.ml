(** Unions of conjunctive queries (Section 2.3 of the paper).

    A UCQ is a tuple of structures over the same signature together with a
    shared set [X] of free variables present in every universe.  As in the
    paper we maintain the convention that distinct disjuncts share only
    their free variables ([U(A_i) ∩ U(A_j) = X] for [i ≠ j]); {!make}
    renames quantified variables apart to enforce it.

    Disjuncts are stored in an array: the [2^ℓ] subset loops of the
    expansion and inclusion–exclusion counters select disjuncts by index,
    and list indexing would cost O(ℓ) per selection — O(ℓ²) per subset —
    inside an exponential loop. *)

module Intset = Intset

type t = { cqs : Structure.t array; free : int list (* sorted *) }

let length (psi : t) : int = Array.length psi.cqs
let free (psi : t) : int list = psi.free
let disjunct_structures (psi : t) : Structure.t list = Array.to_list psi.cqs

(** [num_atoms psi] is the total atom count Σ_i |atoms(Ψ_i)| — the
    optimizer's shrink metric alongside {!length}. *)
let num_atoms (psi : t) : int =
  Array.fold_left (fun acc a -> acc + Structure.num_tuples a) 0 psi.cqs

(** [disjunct psi i] is the [i]-th CQ of the union ([Ψ_i]). *)
let disjunct (psi : t) (i : int) : Cq.t = Cq.make psi.cqs.(i) psi.free

let disjuncts (psi : t) : Cq.t list =
  Array.to_list (Array.map (fun a -> Cq.make a psi.free) psi.cqs)

(** [make cqs] builds a UCQ from conjunctive queries that must all have the
    same free-variable set and signature; quantified variables are renamed
    apart. *)
let make (cqs : Cq.t list) : t =
  match cqs with
  | [] -> invalid_arg "Ucq.make: empty union"
  | first :: rest ->
      let x = Cq.free first in
      List.iter
        (fun q ->
          if Cq.free q <> x then
            invalid_arg "Ucq.make: free variable sets differ";
          if
            not
              (Signature.equal
                 (Structure.signature (Cq.structure q))
                 (Structure.signature (Cq.structure first)))
          then invalid_arg "Ucq.make: signatures differ")
        rest;
      (* Rename quantified variables apart. *)
      let fresh =
        ref
          (1
          + List.fold_left
              (fun acc q ->
                List.fold_left max acc (Structure.universe (Cq.structure q)))
              0 cqs)
      in
      let xset = Intset.of_list x in
      let structures =
        List.map
          (fun q ->
            let a = Cq.structure q in
            let mapping = Hashtbl.create 8 in
            List.iter
              (fun v ->
                if Intset.mem v xset then Hashtbl.add mapping v v
                else begin
                  Hashtbl.add mapping v !fresh;
                  incr fresh
                end)
              (Structure.universe a);
            Structure.rename a (Hashtbl.find mapping))
          cqs
      in
      { cqs = Array.of_list structures; free = x }

(** [of_structures structures free] builds a UCQ directly (used by the
    reduction pipeline, whose structures are already renamed apart: their
    quantified parts are empty). *)
let of_structures (structures : Structure.t list) (free : int list) : t =
  make (List.map (fun a -> Cq.make a free) structures)

(** [size psi] is [|Ψ| = Σ_i |Ψ_i|]. *)
let size (psi : t) : int =
  Array.fold_left
    (fun acc a -> acc + Structure.size a + List.length psi.free)
    0 psi.cqs

(** [arity psi] is the maximum relation arity. *)
let arity (psi : t) : int =
  Array.fold_left
    (fun acc a -> max acc (Signature.arity (Structure.signature a)))
    0 psi.cqs

let is_quantifier_free (psi : t) : bool =
  Array.for_all (fun a -> Structure.universe a = psi.free) psi.cqs

(** [num_quantified psi] is the total number of existentially quantified
    variables, [Σ_i |U(A_i) \ X|]. *)
let num_quantified (psi : t) : int =
  Array.fold_left
    (fun acc a -> acc + (Structure.universe_size a - List.length psi.free))
    0 psi.cqs

(** [restrict psi j] is the sub-union [Ψ|_J] for a list [j] of disjunct
    indices. *)
let restrict (psi : t) (j : int list) : t =
  let j = Listx.sort_uniq_ints j in
  if j = [] then invalid_arg "Ucq.restrict: empty index set";
  { cqs = Array.of_list (List.map (fun i -> psi.cqs.(i)) j); free = psi.free }

(** [combined psi j] is the combined conjunctive query [∧(Ψ|_J)]
    (Definition 23): the union of the structures of the selected disjuncts
    with the same free variables. *)
let combined (psi : t) (j : int list) : Cq.t =
  let j = Listx.sort_uniq_ints j in
  if j = [] then invalid_arg "Ucq.combined: empty index set";
  let structures = List.map (fun i -> psi.cqs.(i)) j in
  Cq.make (Structure.union_all structures) psi.free

(** [combined_all psi] is [∧(Ψ)]. *)
let combined_all (psi : t) : Cq.t =
  combined psi (List.init (length psi) (fun i -> i))

(** [deletion_closure psi] lists all sub-unions [Ψ|_J] for nonempty
    [J ⊆ [ℓ]] — the closure under deletions of Section 3. *)
let deletion_closure (psi : t) : t list =
  List.map (restrict psi) (Combinat.nonempty_subsets (length psi))

(** [is_union_of_acyclic psi] checks that every disjunct is acyclic. *)
let is_union_of_acyclic (psi : t) : bool =
  List.for_all Cq.is_acyclic (disjuncts psi)

(** [is_union_of_self_join_free psi] checks condition (III) of Theorem 3. *)
let is_union_of_self_join_free (psi : t) : bool =
  List.for_all Cq.is_self_join_free (disjuncts psi)

(* ------------------------------------------------------------------ *)
(* Counting answers                                                   *)
(* ------------------------------------------------------------------ *)

let ie_terms_c = Telemetry.counter "ucq.ie.terms"
let expansion_classes_c = Telemetry.counter "ucq.expansion.classes"
let expansion_iso_tests_c = Telemetry.counter "ucq.expansion.iso_tests"

(* bitmask of an index set [J ⊆ [ℓ]], for span attributes *)
let subset_mask (j : int list) : int =
  List.fold_left (fun m i -> m lor (1 lsl i)) 0 j

(* Structural cost proxy for scheduling the per-subset work (combined
   query construction, homomorphism counting, #core computation): the
   combined query of [J] has [Σ atoms] atoms over [≈ Σ vars] variables,
   and both the counters and the core search grow with that product.
   Only relative order matters — the pool bin-packs largest-first — so
   a cheap syntactic proxy is enough and never touches the database. *)
let subset_cost_proxy (psi : t) : int list -> float =
  let atoms = Array.map Structure.num_tuples psi.cqs in
  let vars = Array.map Structure.universe_size psi.cqs in
  fun j ->
    let a = List.fold_left (fun acc i -> acc + atoms.(i)) 0 j in
    let v = List.fold_left (fun acc i -> acc + vars.(i)) 0 j in
    float_of_int (1 + a) *. float_of_int (1 + v)

(* Database-independent default for scheduling expansion terms; callers
   with a database in hand pass the calibrated [Plan.rep_cost] instead.
   Non-acyclic terms go through variable elimination rather than the
   linear join-tree counter, so they get a flat penalty factor. *)
let default_term_cost (q : Cq.t) : float =
  let s = Cq.structure q in
  let base =
    float_of_int (1 + Structure.num_tuples s)
    *. float_of_int (1 + Structure.universe_size s)
  in
  if Cq.is_acyclic q then base else base *. 8.

(** [count_naive ?budget ?pool psi d] iterates all assignments [X → U(D)]
    and keeps those that are an answer of some disjunct — the reference
    oracle.  The budget is ticked once per assignment and threaded into
    the homomorphism search.  Assignments are enumerated lazily (never
    materialising the [|D|^|X|] product); with a parallel pool the index
    space is split into ranges swept by the worker domains. *)
let count_naive ?(budget : Budget.t option) ?(pool : Pool.t option) (psi : t)
    (d : Structure.t) : int =
  Telemetry.with_span ?budget
    ~attrs:(fun () ->
      [
        ("l", Telemetry.I (length psi));
        ("free", Telemetry.I (List.length psi.free));
        ("dom", Telemetry.I (Structure.universe_size d));
      ])
    "ucq.naive"
  @@ fun () ->
  let x = psi.free in
  let k = List.length x in
  let dom = Structure.universe d in
  let cqs = Array.to_list psi.cqs in
  let is_answer tup =
    Budget.tick_opt budget;
    let fixed = List.combine x tup in
    List.exists (fun a -> Hom.exists ?budget ~fixed a d) cqs
  in
  if not (Pool.is_parallel pool) then
    Seq.fold_left
      (fun acc tup -> if is_answer tup then acc + 1 else acc)
      0
      (Combinat.tuples_seq k dom)
  else
    Pool.count_range (Option.get pool) ?budget
      ~total:(Combinat.num_tuples k dom)
      (fun idx -> is_answer (Combinat.tuple_of_index k dom idx))

(** The nonempty index sets [J ⊆ [ℓ]] in bitmask order — the iteration
    space shared by the inclusion–exclusion counter and the expansion. *)
let nonempty_index_sets (psi : t) : int list array =
  Array.of_list (Combinat.nonempty_subsets (length psi))

(** [count_inclusion_exclusion ?strategy ?budget ?pool psi d] computes
    [ans(Ψ → D) = Σ_{∅≠J} (-1)^(|J|+1) · ans(∧(Ψ|_J) → D)]
    (the proof of Lemma 26), counting each combined query with the given
    per-CQ strategy.  The budget is ticked once per index set [J] and
    threaded into each per-CQ count.  Each signed term is an independent
    {!Counting.count} call, so a pool fans the [2^ℓ − 1] terms out across
    domains; the signed sum is reduced in bitmask order regardless of
    scheduling. *)
let count_inclusion_exclusion ?(strategy = Counting.Auto)
    ?(budget : Budget.t option) ?(pool : Pool.t option) (psi : t)
    (d : Structure.t) : int =
  Telemetry.with_span ?budget
    ~attrs:(fun () -> [ ("l", Telemetry.I (length psi)) ])
    "ucq.ie"
  @@ fun () ->
  let term j =
    Budget.tick_opt budget;
    Telemetry.incr ie_terms_c;
    Telemetry.with_span
      ~attrs:(fun () -> [ ("subset", Telemetry.I (subset_mask j)) ])
      "ucq.ie.term"
    @@ fun () ->
    let sign = if List.length j mod 2 = 1 then 1 else -1 in
    sign * Counting.count ~strategy ?budget (combined psi j) d
  in
  let costs = if Pool.is_parallel pool then Some (subset_cost_proxy psi) else None in
  Pool.fold_opt pool ?budget ?costs ~f:term ~combine:( + ) ~init:0
    (nonempty_index_sets psi)

(* ------------------------------------------------------------------ *)
(* CQ expansion (Definition 25, Lemma 26)                             *)
(* ------------------------------------------------------------------ *)

(** One #equivalence class of the CQ expansion: a #minimal representative
    (the #core of the combined queries in the class) and its coefficient
    [c_Ψ]. *)
type expansion_term = { representative : Cq.t; coefficient : int }

(* A cheap isomorphism invariant of a #core: universe size, number of
   free variables and the tuple count of every relation — the facts the
   shape test of [Struct_iso.find_isomorphism] compares before it
   searches (the signature, its other fact, is shared by every core of
   one union), so isomorphic cores always share a key. *)
let iso_key (q : Cq.t) : int * int * (string * int) list =
  let a = Cq.structure q in
  ( Structure.universe_size a,
    List.length (Cq.free q),
    List.map (fun (name, ts) -> (name, List.length ts)) (Structure.relations a)
  )

(** [expansion ?budget ?pool psi] computes the CQ expansion of [Ψ]: group
    the combined queries [∧(Ψ|_J)] over all nonempty [J] by #equivalence
    and sum the signs [(-1)^(|J|+1)].  Representatives are #minimal (they
    are #cores), so by Lemma 18 grouping by isomorphism of #cores is
    exactly grouping by #equivalence.  Terms with coefficient [0] are
    retained; use {!support} for the non-vanishing part.  Runs in time
    [2^ℓ · poly(|Ψ|)]; the budget is ticked once per index set.  The
    per-subset #core computations are independent and run on the pool;
    the grouping is a sequential pass in bitmask order that buckets the
    classes by {!iso_key} and tests isomorphism only within a bucket, so
    the class list (in order of first appearance) is identical for every
    job count. *)
let expansion ?(budget : Budget.t option) ?(pool : Pool.t option) (psi : t) :
    expansion_term list =
  Telemetry.with_span ?budget
    ~attrs:(fun () -> [ ("l", Telemetry.I (length psi)) ])
    "ucq.expansion"
  @@ fun () ->
  let core_of j =
    Budget.tick_opt budget;
    Telemetry.with_span
      ~attrs:(fun () -> [ ("subset", Telemetry.I (subset_mask j)) ])
      "ucq.expansion.core"
    @@ fun () ->
    let core = Cq.sharp_core (combined psi j) in
    let sign = if List.length j mod 2 = 1 then 1 else -1 in
    (core, sign)
  in
  let costs = if Pool.is_parallel pool then Some (subset_cost_proxy psi) else None in
  let cores =
    Pool.map_opt pool ?budget ?costs core_of (nonempty_index_sets psi)
  in
  (* classes newest first; a core is isomorphic to at most one class, so
     the scan order inside a bucket cannot change the result *)
  let classes : (Cq.t * int ref) list ref = ref [] in
  let buckets = Hashtbl.create 64 in
  let iso_tests = ref 0 in
  Array.iter
    (fun (core, sign) ->
      let key = iso_key core in
      let bucket = Option.value (Hashtbl.find_opt buckets key) ~default:[] in
      let same (rep, _) =
        incr iso_tests;
        (* syntactic equality is a cheap certificate of isomorphism
           and the common case in quantifier-free expansions *)
        Cq.equal rep core || Cq.isomorphic rep core
      in
      match List.find_opt same bucket with
      | Some (_, coeff) -> coeff := !coeff + sign
      | None ->
          let cls = (core, ref sign) in
          Hashtbl.replace buckets key (cls :: bucket);
          classes := cls :: !classes)
    cores;
  Telemetry.add expansion_iso_tests_c !iso_tests;
  Telemetry.add expansion_classes_c (List.length !classes);
  List.rev_map
    (fun (rep, coeff) -> { representative = rep; coefficient = !coeff })
    !classes

(** [support ?budget ?pool psi] is the expansion restricted to non-zero
    coefficients: the #minimal queries [(A, X)] with [c_Ψ(A, X) ≠ 0]. *)
let support ?(budget : Budget.t option) ?(pool : Pool.t option) (psi : t) :
    expansion_term list =
  List.filter (fun t -> t.coefficient <> 0) (expansion ?budget ?pool psi)

(** [coefficient psi q] is [c_Ψ(A, X)] for a conjunctive query [q]
    (Definition 25): the signed number of index sets whose combined query is
    #equivalent to [q]. *)
let coefficient (psi : t) (q : Cq.t) : int =
  let core = Cq.sharp_core q in
  List.fold_left
    (fun acc (term : expansion_term) ->
      if Cq.isomorphic term.representative core then acc + term.coefficient
      else acc)
    0 (expansion psi)

(** [count_terms ?strategy ?budget ?pool ?term_cost terms d] evaluates
    an already computed expansion on [d]: the linear combination of
    Lemma 26, [Σ c_Ψ(A,X) · ans((A,X) → D)], over the terms with a
    non-zero coefficient.  Each surviving term is an independent
    {!Counting.count} call fanned out on the pool; [term_cost] ranks the
    terms for largest-first placement (the Runner passes the calibrated
    database-aware estimate from the analysis layer). *)
let count_terms ?(strategy = Counting.Auto) ?(budget : Budget.t option)
    ?(pool : Pool.t option) ?(term_cost : (Cq.t -> float) option)
    (terms : expansion_term list) (d : Structure.t) : int =
  let terms =
    Array.of_list
      (List.filter (fun (t : expansion_term) -> t.coefficient <> 0) terms)
  in
  let costs =
    if Pool.is_parallel pool then
      let cost = Option.value term_cost ~default:default_term_cost in
      Some (fun (t : expansion_term) -> cost t.representative)
    else None
  in
  Pool.fold_opt pool ?budget ?costs
    ~f:(fun (term : expansion_term) ->
      term.coefficient * Counting.count ~strategy ?budget term.representative d)
    ~combine:( + ) ~init:0 terms

(** [count_via_expansion ?strategy ?budget ?pool ?term_cost psi d] is
    {!expansion} followed by {!count_terms}. *)
let count_via_expansion ?strategy ?(budget : Budget.t option)
    ?(pool : Pool.t option) ?term_cost (psi : t) (d : Structure.t) : int =
  Telemetry.with_span ?budget
    ~attrs:(fun () -> [ ("l", Telemetry.I (length psi)) ])
    "ucq.count_via_expansion"
  @@ fun () ->
  count_terms ?strategy ?budget ?pool ?term_cost (expansion ?budget ?pool psi) d

(** [is_exhaustively_q_hierarchical psi] checks the Berkholz–Keppeler–
    Schweikardt criterion for constant-delay dynamic counting of UCQs
    ([12, Theorem 4.5], discussed in Section 1.2): every combined query
    [∧(Ψ|_J)] must be q-hierarchical.  The straightforward algorithm used
    here is exponential in [ℓ]; whether this can be improved is open. *)
let is_exhaustively_q_hierarchical (psi : t) : bool =
  List.for_all
    (fun j -> Cq.is_q_hierarchical (combined psi j))
    (Combinat.nonempty_subsets (length psi))

let pp (fmt : Format.formatter) (psi : t) : unit =
  Format.fprintf fmt "@[<v>UCQ with %d disjuncts, free = {%s}@]" (length psi)
    (String.concat "," (List.map string_of_int psi.free))

(** [count_via_expansion_big psi d] is the exact arbitrary-precision variant
    of {!count_via_expansion}; it is the oracle used by the
    complexity-monotonicity solver (Theorem 28), whose tensor-product
    databases push answer counts beyond native range. *)
let count_via_expansion_big (psi : t) (d : Structure.t) : Bigint.t =
  List.fold_left
    (fun acc (term : expansion_term) ->
      if term.coefficient = 0 then acc
      else
        Bigint.add acc
          (Bigint.mul
             (Bigint.of_int term.coefficient)
             (Counting.count_big term.representative d)))
    Bigint.zero (expansion psi)

(** [count_inclusion_exclusion_big psi d] is the exact arbitrary-precision
    variant of {!count_inclusion_exclusion}. *)
let count_inclusion_exclusion_big (psi : t) (d : Structure.t) : Bigint.t =
  Combinat.subsets_fold
    (fun acc j ->
      match j with
      | [] -> acc
      | _ ->
          let term = Counting.count_big (combined psi j) d in
          if List.length j mod 2 = 1 then Bigint.add acc term
          else Bigint.sub acc term)
    Bigint.zero (length psi)

(* ------------------------------------------------------------------ *)
(* Compiled expansions                                                *)
(* ------------------------------------------------------------------ *)

(** A UCQ compiled for repeated counting: the [2^ℓ] expansion work (cores,
    isomorphism grouping) is paid once, as are the per-term scheduling
    cost estimates; each database is then counted by evaluating the
    stored support terms. *)
type compiled = {
  query : t;
  terms : expansion_term list;
  costs : float array;  (** one scheduling estimate per stored term *)
}

(** [compile ?pool ?term_cost psi] precomputes the expansion support and
    the per-term scheduling estimates. *)
let compile ?(pool : Pool.t option) ?(term_cost = default_term_cost) (psi : t)
    : compiled =
  let terms = support ?pool psi in
  {
    query = psi;
    terms;
    costs =
      Array.of_list
        (List.map (fun (t : expansion_term) -> term_cost t.representative) terms);
  }

(** [compiled_support c] exposes the precomputed support. *)
let compiled_support (c : compiled) : expansion_term list = c.terms

(** [count_compiled ?strategy ?pool c d] evaluates the stored linear
    combination on [d], one pool task per surviving term, packed
    largest-first by the precomputed estimates. *)
let count_compiled ?(strategy = Counting.Auto) ?(pool : Pool.t option)
    (c : compiled) (d : Structure.t) : int =
  let terms = Array.of_list c.terms in
  let eval i =
    let t = terms.(i) in
    t.coefficient * Counting.count ~strategy t.representative d
  in
  let per =
    Pool.run
      (Option.value pool ~default:Pool.sequential)
      ~costs:(fun i -> c.costs.(i))
      ~f:eval (Array.length terms)
  in
  Array.fold_left ( + ) 0 per
