(* Shared fixtures and utilities for the test suites. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern

(* A small personnel document with known structure, used throughout:

   <company>
     <manager>                          id 1
       <name>ann</name>                 id 2
       <employee><name>bob</name></employee>      ids 3,4
       <manager>                        id 5
         <name>cid</name>               id 6
         <department><name>sales</name></department>  ids 7,8
         <employee><name>dan</name></employee>        ids 9,10
       </manager>
       <department><name>ops</name></department>      ids 11,12
     </manager>
     <manager>                          id 13
       <name>eve</name>                 id 14
       <employee><name>fay</name></employee>          ids 15,16
     </manager>
   </company> *)
let tiny_pers_xml =
  "<company><manager><name>ann</name><employee><name>bob</name></employee>\
   <manager><name>cid</name><department><name>sales</name></department>\
   <employee><name>dan</name></employee></manager>\
   <department><name>ops</name></department></manager>\
   <manager><name>eve</name><employee><name>fay</name></employee></manager>\
   </company>"

let tiny_pers = lazy (Parser.parse_string tiny_pers_xml)
let tiny_index = lazy (Element_index.build (Lazy.force tiny_pers))

(* Deterministic generated documents, shared across suites to amortize
   generation cost. *)
let pers_1k = lazy (Sjos_datagen.Pers.generate ~seed:7 ~target_nodes:1000 ())
let pers_1k_index = lazy (Element_index.build (Lazy.force pers_1k))
let dblp_1k = lazy (Sjos_datagen.Dblp.generate ~seed:8 ~target_nodes:1000 ())
let mbench_1k = lazy (Sjos_datagen.Mbench.generate ~seed:9 ~target_nodes:1000 ())

let pat s = Parse.pattern s

(* Compare two match-sets regardless of order. *)
let sorted_tuples l =
  List.sort compare (List.map Array.to_list l)

let check_same_matches msg expected actual =
  Alcotest.(check (list (list int)))
    msg (sorted_tuples expected) (sorted_tuples actual)

let exact_provider index p = Sjos_exec.Naive.exact_provider index p

let check_float = Alcotest.(check (float 1e-9))
let checkf msg a b = Alcotest.(check (float 1e-6)) msg a b

(* Work equality, one check per counter so a failure names it. *)
let check_work msg (a : Sjos_obs.Work.t) (b : Sjos_obs.Work.t) =
  List.iter2
    (fun (k, av) (_, bv) -> Alcotest.(check int) (msg ^ ": " ^ k) av bv)
    (Sjos_obs.Work.fields a) (Sjos_obs.Work.fields b);
  check_float (msg ^ ": sort_cost") a.Sjos_obs.Work.sort_cost
    b.Sjos_obs.Work.sort_cost

(* Legacy vs columnar: only the columnar kernels skip, so the legacy
   side must report no skips and the rest must match. *)
let check_work_mod_skips msg ~(legacy : Sjos_obs.Work.t)
    (columnar : Sjos_obs.Work.t) =
  Alcotest.(check int)
    (msg ^ ": legacy items_skipped = 0")
    0 legacy.Sjos_obs.Work.items_skipped;
  check_work msg legacy { columnar with Sjos_obs.Work.items_skipped = 0 }

(* Run one optimizer algorithm against the tiny fixture. *)
let optimize_tiny ?(provider_of = exact_provider) algorithm p =
  let index = Lazy.force tiny_index in
  Sjos_core.Optimizer.optimize ~provider:(provider_of index p) algorithm p

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Substring test (Stdlib has none). *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

(* A seeded Mbench, DBLP or Pers document (chosen by [seed mod 3]) whose
   text and attribute values are partly rewritten to hold &, <, > and
   double quotes beside spaces: what the serializer must escape and the
   parser must decode without dropping the spaces.  Texts carry no whitespace at their ends,
   so they survive the parser's trimming under both indent modes;
   attribute values keep theirs. *)
let tricky_doc seed =
  let open Sjos_datagen in
  let rng = Rng.create (seed + 1) in
  let target_nodes = 50 + Rng.int rng 400 in
  let doc =
    match seed mod 3 with
    | 0 -> Mbench.generate ~seed ~target_nodes ()
    | 1 -> Dblp.generate ~seed ~target_nodes ()
    | _ -> Pers.generate ~seed ~target_nodes ()
  in
  let words =
    [| "&"; "<"; ">"; "\""; "'"; "a&b"; "x<y>"; "&amp;"; "]]>"; "Tom"; "1" |]
  and seps = [| " "; "  "; "\t"; "\n"; " \r\n " |] in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let phrase () =
    let n = 1 + Rng.int rng 4 in
    let b = Buffer.create 32 in
    for i = 1 to n do
      if i > 1 then Buffer.add_string b (pick seps);
      Buffer.add_string b (pick words)
    done;
    Buffer.contents b
  in
  let rewrite (n : Sjos_xml.Node.t) =
    let text = if Rng.int rng 3 = 0 then phrase () else n.Sjos_xml.Node.text in
    let attrs =
      List.map
        (fun (k, v) -> if Rng.int rng 3 = 0 then (k, " " ^ phrase () ^ " ") else (k, v))
        n.Sjos_xml.Node.attrs
    in
    { n with Sjos_xml.Node.text; attrs }
  in
  Document.of_nodes (Array.map rewrite (Document.nodes doc))
