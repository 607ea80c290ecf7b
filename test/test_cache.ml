(* The prepared-query pipeline: structural fingerprints, the LRU plan
   cache, epoch invalidation, and cached-vs-cold result identity. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_core
open Sjos_exec
open Sjos_engine
open Sjos_cache

let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string
let check = Alcotest.check

(* ---------- fingerprints ---------- *)

let tag = Candidate.of_tag

(* manager(//employee(/name),/department), built with two different node
   numberings: the canonical parse order and a scrambled one. *)
let pat_ordered =
  Pattern.create
    ~labels:[| tag "manager"; tag "employee"; tag "name"; tag "department" |]
    ~edges:
      [|
        (0, Axes.Descendant, 1); (1, Axes.Child, 2); (0, Axes.Child, 3);
      |]
    ()

let pat_scrambled =
  Pattern.create
    ~labels:[| tag "manager"; tag "department"; tag "employee"; tag "name" |]
    ~edges:
      [|
        (0, Axes.Child, 1); (0, Axes.Descendant, 2); (2, Axes.Child, 3);
      |]
    ()

let test_fingerprint_renumbering () =
  check cs "renumbered isomorphs share a fingerprint"
    (Fingerprint.fingerprint pat_ordered)
    (Fingerprint.fingerprint pat_scrambled);
  check cb "structurally_equal agrees" true
    (Fingerprint.structurally_equal pat_ordered pat_scrambled);
  (* sibling order in the parse string is also numbering, not structure *)
  check cs "permuted branches share a fingerprint"
    (Fingerprint.fingerprint (Parse.pattern "a(/b,//c(/d))"))
    (Fingerprint.fingerprint (Parse.pattern "a(//c(/d),/b)"))

let test_fingerprint_sensitivity () =
  let fp s = Fingerprint.fingerprint (Parse.pattern s) in
  check cb "axis change changes the fingerprint" false (fp "a(/b)" = fp "a(//b)");
  check cb "label change changes the fingerprint" false (fp "a(/b)" = fp "a(/c)");
  check cb "shape change changes the fingerprint" false
    (fp "a(/b(/c))" = fp "a(/b,/c)");
  let p = Parse.pattern "a(/b,/c)" in
  check cb "order-by node changes the fingerprint" false
    (Fingerprint.fingerprint (Pattern.with_order_by p (Some 1))
    = Fingerprint.fingerprint (Pattern.with_order_by p (Some 2)));
  check cb "order-by presence changes the fingerprint" false
    (Fingerprint.fingerprint p
    = Fingerprint.fingerprint (Pattern.with_order_by p (Some 1)));
  (* order-by on one of two *identical* branches is pure renumbering: the
     canonical mapping transports the sort node, so the fingerprints agree *)
  let twin = Parse.pattern "a(/b,/b)" in
  check cs "order-by on interchangeable twins is isomorphic"
    (Fingerprint.fingerprint (Pattern.with_order_by twin (Some 1)))
    (Fingerprint.fingerprint (Pattern.with_order_by twin (Some 2)))

let test_canonical_mapping () =
  let canon, mapping = Fingerprint.canonical pat_scrambled in
  check cs "canonical form has the same fingerprint"
    (Fingerprint.fingerprint pat_scrambled)
    (Fingerprint.fingerprint canon);
  check ci "same node count" (Pattern.node_count pat_scrambled)
    (Pattern.node_count canon);
  (* the mapping transports labels old -> canonical *)
  Array.iteri
    (fun old nw ->
      check cb "label preserved through mapping" true
        (Pattern.label pat_scrambled old = Pattern.label canon nw))
    mapping;
  check ci "root maps to root" 0 mapping.(0)

(* ---------- LRU ---------- *)

let test_lru_eviction_order () =
  let l = Lru.create ~capacity:2 in
  check cb "no eviction below capacity" true (Lru.add l "a" 1 = None);
  check cb "no eviction at capacity" true (Lru.add l "b" 2 = None);
  (* touching "a" makes "b" the least recently used *)
  check cb "hit" true (Lru.find l "a" = Some 1);
  check cb "evicts the LRU key" true (Lru.add l "c" 3 = Some "b");
  check cb "b gone" false (Lru.mem l "b");
  check cb "a survives" true (Lru.mem l "a");
  check ci "still at capacity" 2 (Lru.length l);
  check cb "MRU order" true (Lru.to_list l = [ ("c", 3); ("a", 1) ]);
  (* replacing an existing key never evicts *)
  check cb "replace is not an insert" true (Lru.add l "a" 9 = None);
  check cb "replaced value" true (Lru.find l "a" = Some 9)

let test_plan_cache_counters () =
  let c = Plan_cache.create ~capacity:2 () in
  let entry = { Plan_cache.plan_text = "(scan A)"; est_cost = 1.; algorithm = "DPP" } in
  check cb "miss on empty" true (Plan_cache.find c "k1" = None);
  Plan_cache.add c "k1" entry;
  check cb "hit" true (Plan_cache.find c "k1" <> None);
  Plan_cache.add c "k2" entry;
  Plan_cache.add c "k3" entry (* evicts k1's slot: k1 was MRU, k2 LRU... *);
  let s = Plan_cache.stats c in
  check ci "one eviction" 1 s.Plan_cache.evictions;
  check ci "one hit" 1 s.Plan_cache.hits;
  check ci "one miss" 1 s.Plan_cache.misses;
  Plan_cache.bump_epoch c;
  check cb "stale entry is a miss" true (Plan_cache.find c "k3" = None);
  let s = Plan_cache.stats c in
  check ci "invalidation counted" 1 s.Plan_cache.invalidations

(* ---------- prepared queries against a database ---------- *)

let db () = Database.of_string Helpers.tiny_pers_xml
let pers_pat = "manager(//employee(/name))"

let effort_is_zero (r : Optimizer.result) =
  r.Optimizer.plans_considered = 0
  && r.Optimizer.statuses_generated = 0
  && r.Optimizer.statuses_expanded = 0
  && r.Optimizer.effort.Effort.considered = 0
  && r.Optimizer.effort.Effort.generated = 0
  && r.Optimizer.effort.Effort.expanded = 0

let test_warm_run_skips_search () =
  let db = db () in
  let p = Helpers.pat pers_pat in
  let cold = Database.run db p in
  check cb "cold run searched" true (cold.Database.opt.Optimizer.plans_considered > 0);
  let warm = Database.run db p in
  check cb "warm run searched nothing" true (effort_is_zero warm.Database.opt);
  let s = Plan_cache.stats (Database.plan_cache db) in
  check cb "hit counted" true (s.Plan_cache.hits >= 1);
  check cb "same plan" true
    (Sjos_plan.Plan.equal cold.Database.opt.Optimizer.plan
       warm.Database.opt.Optimizer.plan);
  check cb "identical tuples" true
    (cold.Database.exec.Executor.tuples = warm.Database.exec.Executor.tuples)

let test_warm_hit_across_numbering () =
  let db = db () in
  (* same structure, different construction order: one optimizer search
     serves both *)
  ignore (Database.run db pat_ordered);
  let p = Database.prepare db pat_scrambled in
  check cb "renumbered pattern hits the cache" true
    (Database.prepared_from_cache p);
  let run = Database.exec p in
  check cb "and still finds matches" true
    (Array.length run.Database.exec.Executor.tuples > 0)

let test_cold_opts_bypass () =
  let db = db () in
  let p = Helpers.pat pers_pat in
  ignore (Database.run db p);
  let run = Database.run ~opts:(Query_opts.cold Query_opts.default) db p in
  check cb "cold opts always search" true
    (run.Database.opt.Optimizer.plans_considered > 0);
  (* a cache-off prepare is the fresh search Table 2 relies on *)
  let r =
    Database.prepared_result
      (Database.prepare ~opts:(Query_opts.make ~use_cache:false ()) db p)
  in
  check cb "optimize never reads the cache" true (r.Optimizer.plans_considered > 0)

let test_epoch_invalidation () =
  let db = db () in
  let p = Helpers.pat pers_pat in
  let prep = Database.prepare db p in
  ignore (Database.exec prep);
  ignore (Database.exec prep);
  let before = Plan_cache.epoch (Database.plan_cache db) in
  Database.set_factors db
    (Sjos_cost.Cost_model.make ~f_index:2.0 ());
  check ci "stats change bumps the epoch" (before + 1)
    (Plan_cache.epoch (Database.plan_cache db));
  (* the prepared handle notices and re-optimizes *)
  let r = Database.prepared_result prep in
  check cb "handle re-optimized under new stats" false (effort_is_zero r);
  check cb "re-resolve was not a cache hit" false (Database.prepared_from_cache prep);
  let s = Plan_cache.stats (Database.plan_cache db) in
  check cb "invalidation counted" true (s.Plan_cache.invalidations >= 1);
  (* and the handle still executes correctly *)
  let run = Database.exec prep in
  check cb "still correct" true (Array.length run.Database.exec.Executor.tuples > 0)

let test_cached_equals_cold_on_workload () =
  let sizes = function
    | Workload.Pers -> 600
    | Workload.Mbench -> 800
    | Workload.Dblp -> 800
  in
  let dbs = Hashtbl.create 4 in
  let db_for ds =
    match Hashtbl.find_opt dbs ds with
    | Some db -> db
    | None ->
        let db = Database.of_document (Workload.generate ~size:(sizes ds) ds) in
        Hashtbl.add dbs ds db;
        db
  in
  List.iter
    (fun (q : Workload.query) ->
      let db = db_for q.Workload.dataset in
      let cold =
        Workload.run ~opts:(Query_opts.cold Query_opts.default) db q
      in
      ignore (Workload.run db q) (* populate *);
      let warm = Workload.run db q in
      check cb (q.Workload.id ^ " warm used the cache") true
        (effort_is_zero warm.Database.opt);
      let ct = cold.Database.exec.Executor.tuples in
      let wt = warm.Database.exec.Executor.tuples in
      check ci (q.Workload.id ^ " same match count") (Array.length ct)
        (Array.length wt);
      Array.iteri
        (fun i t ->
          check cb (q.Workload.id ^ " tuple bit-identical") true
            (Tuple.equal t wt.(i)))
        ct)
    Workload.queries

(* The engine is part of the cache key: a plan optimized under one
   physical engine must never be served to another, and a holistic plan
   round-trips through the serialized cache entry intact. *)
let test_engine_in_cache_key () =
  let db = db () in
  let p = Helpers.pat pers_pat in
  let run engine = Database.run ~opts:(Query_opts.make ~engine ()) db p in
  let bin = run Optimizer.Binary in
  check cb "binary cold run searched" true
    (bin.Database.opt.Optimizer.plans_considered > 0);
  (* a different engine with the same algorithm+structure must miss *)
  let hol = run Optimizer.Holistic in
  check cb "holistic plan chosen" true
    (Sjos_plan.Plan.uses_holistic hol.Database.opt.Optimizer.plan);
  check cb "binary entry not served to holistic" false
    (Sjos_plan.Plan.uses_holistic bin.Database.opt.Optimizer.plan);
  let auto = run Optimizer.Auto in
  check cb "auto cold run searched" true
    (auto.Database.opt.Optimizer.plans_considered > 0);
  (* warm per engine: each hits its own entry and round-trips its plan *)
  let bin2 = run Optimizer.Binary in
  let hol2 = run Optimizer.Holistic in
  let auto2 = run Optimizer.Auto in
  check cb "binary warm hit" true (effort_is_zero bin2.Database.opt);
  check cb "holistic warm hit" true (effort_is_zero hol2.Database.opt);
  check cb "auto warm hit" true (effort_is_zero auto2.Database.opt);
  check cb "holistic plan round-trips the cache" true
    (Sjos_plan.Plan.equal hol.Database.opt.Optimizer.plan
       hol2.Database.opt.Optimizer.plan);
  check cb "binary warm plan unchanged" true
    (Sjos_plan.Plan.equal bin.Database.opt.Optimizer.plan
       bin2.Database.opt.Optimizer.plan);
  check cb "auto warm plan unchanged" true
    (Sjos_plan.Plan.equal auto.Database.opt.Optimizer.plan
       auto2.Database.opt.Optimizer.plan);
  (* all three engines agree on the result set *)
  let sorted (r : Database.query_run) =
    List.sort compare
      (List.map Array.to_list
         (Array.to_list r.Database.exec.Executor.tuples))
  in
  check cb "identical results across engines" true
    (sorted bin = sorted hol && sorted hol = sorted auto)

let test_pattern_names_distinct () =
  (* >26 nodes used to collide on "N%d"-style names *)
  let n = 60 in
  let labels = Array.make n Candidate.any in
  let edges = Array.init (n - 1) (fun i -> (i, Axes.Child, i + 1)) in
  let p = Pattern.create ~labels ~edges () in
  let names = List.init n (Pattern.name p) in
  check ci "all names distinct" n
    (List.length (List.sort_uniq String.compare names));
  check cs "index 0" "A" (Pattern.name p 0);
  check cs "index 25" "Z" (Pattern.name p 25);
  check cs "index 26" "AA" (Pattern.name p 26);
  check cs "index 51" "AZ" (Pattern.name p 51);
  check cs "index 52" "BA" (Pattern.name p 52)

let suite =
  [
    Alcotest.test_case "fingerprint invariant under renumbering" `Quick
      test_fingerprint_renumbering;
    Alcotest.test_case "fingerprint sensitive to axis/label/shape" `Quick
      test_fingerprint_sensitivity;
    Alcotest.test_case "canonical mapping preserves labels" `Quick
      test_canonical_mapping;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "plan-cache counters" `Quick test_plan_cache_counters;
    Alcotest.test_case "warm run skips the search" `Quick
      test_warm_run_skips_search;
    Alcotest.test_case "warm hit across numberings" `Quick
      test_warm_hit_across_numbering;
    Alcotest.test_case "cold opts bypass the cache" `Quick
      test_cold_opts_bypass;
    Alcotest.test_case "epoch invalidation on stats change" `Quick
      test_epoch_invalidation;
    Alcotest.test_case "cached = cold on all workload queries" `Slow
      test_cached_equals_cold_on_workload;
    Alcotest.test_case "engine is part of the cache key" `Quick
      test_engine_in_cache_key;
    Alcotest.test_case "pattern names distinct past 26 nodes" `Quick
      test_pattern_names_distinct;
  ]
