(* Input generation.  Everything a workload reads — the XML document and
   its query set, request mix or pattern stream — is derived from the
   seed here and written to files; the measuring process reads only
   those files, never the seed. *)

module Pattern = Sjos_pattern.Pattern
module Shapes = Sjos_pattern.Shapes
module Candidate = Sjos_storage.Candidate
module Json = Util.Json

(* splitmix64, as in the datagen and pattern generators *)
let rng seed =
  let state = ref (Int64.add (Int64.of_int seed) 0x5DEECE66DL) in
  fun bound ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    if bound <= 1 then 0 else Int64.to_int (Int64.unsigned_rem z (Int64.of_int bound))

let shuffle rand a =
  for i = Array.length a - 1 downto 1 do
    let j = rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The paper's Mbench size (§4.1): 740K elements, about 75.8 MB of XML. *)
let mbench_nodes = 740_000

(* Pers at the paper's 5K elements. *)
let pers_nodes = 5_000

let write_doc path doc = Sjos_xml.Serializer.to_file path doc

let mbench_doc ~seed dir =
  write_doc
    (Filename.concat dir "doc.xml")
    (Sjos_datagen.Mbench.generate ~seed ~target_nodes:mbench_nodes ())

(* ---------- cold-mbench ---------- *)

(* The two Mbench queries of the paper's Table 1 and the headline
   pattern: one cold pass runs all three. *)
let cold_queries =
  List.map
    (fun id -> (id, Pattern.to_string (Sjos_engine.Workload.find id).pattern))
    [ "Q.Mbench.1.a"; "Q.Mbench.2.b" ]
  @ [ ("headline", "eNest(//eNest(/eOccasional))") ]

let cold_mbench ~seed dir =
  mbench_doc ~seed dir;
  Util.write_lines
    (Filename.concat dir "queries.txt")
    (List.map (fun (id, text) -> id ^ "\t" ^ text) cold_queries)

(* ---------- hot-serve ----------

   Two classes of pattern.  Selective ones carry attribute predicates
   (values drawn from the seed; aFour and aSixtyFour are uniform by
   construction, so the draw changes which nodes match but hardly how
   many).  Pure-tag ones read whole eNest/eOccasional columns through
   the pager.  Half of each class is bound by name at set-up and
   executed by name; the other half is sent as ad-hoc pattern text. *)

let selective rand =
  let j () = string_of_int (rand 64) and f () = string_of_int (rand 4) in
  [
    Printf.sprintf "eNest[@aLevel='3'](//eNest[@aSixtyFour='%s'](/eOccasional))" (j ());
    Printf.sprintf "eNest[@aLevel='4'](/eNest[@aFour='%s'](/eOccasional))" (f ());
    Printf.sprintf "eNest[@aSixtyFour='%s'](/eOccasional)" (j ());
    Printf.sprintf "eNest[@aLevel='2'](//eNest[@aLevel='6'](/eNest[@aSixtyFour='%s']))" (j ());
    Printf.sprintf "eNest[@aFour='%s'](/eNest[@aSixtyFour='%s'])" (f ()) (j ());
    Printf.sprintf "eNest[@aLevel='5'](//eOccasional)";
    Printf.sprintf "eNest[@aSixtyFour='%s'](//eNest[@aSixtyFour='%s'])" (j ()) (j ());
    Printf.sprintf "eNest[@aLevel='7'](/eNest[@aFour='%s'])" (f ());
  ]

let pure_tag = [ "eNest(/eOccasional)"; "eNest(//eOccasional)" ]

(* Requests come in blocks of 19: every selective pattern twice, the
   first pure-tag pattern twice and the second once, in seeded order.
   Every prefix of the stream so has the same shares, whatever the
   seed.  The median falls about three quarters into the fifth-fastest
   selective pattern's share, and the 90th percentile about half-way
   into the first pure-tag pattern's: neither sits on a class or pattern
   boundary. *)
let mix_blocks = 1_000

let hot_serve ~seed dir =
  mbench_doc ~seed dir;
  let rand = rng seed in
  let sel = selective rand in
  let patterns =
    List.mapi
      (fun i text -> (Printf.sprintf "s%d" i, "selective", text, i mod 2 = 0))
      sel
    @ List.mapi
        (fun i text -> (Printf.sprintf "p%d" i, "pure_tag", text, i mod 2 = 1))
        pure_tag
  in
  let n_sel = List.length sel in
  let block =
    List.init n_sel Fun.id @ List.init n_sel Fun.id @ [ n_sel; n_sel; n_sel + 1 ]
  in
  let sequence =
    List.concat
      (List.init mix_blocks (fun _ ->
           let b = Array.of_list block in
           shuffle rand b;
           Array.to_list b))
  in
  let json =
    Json.Obj
      [
        ( "patterns",
          Json.List
            (List.map
               (fun (name, cls, text, named) ->
                 Json.Obj
                   [
                     ("name", Json.Str name);
                     ("class", Json.Str cls);
                     ("pattern", Json.Str text);
                     ("named", Json.Bool named);
                   ])
               patterns) );
        ("sequence", Json.List (List.map (fun i -> Json.Int i) sequence));
      ]
  in
  Util.write_lines (Filename.concat dir "mix.json") [ Json.to_string json ]

(* ---------- optimize-novel ----------

   Skeletons from [Shapes.generate] relabelled with Pers tags (the raw
   a-h tags match nothing in Pers, which would zero every estimate).
   Inner nodes become managers, leaves one of the tags found below a
   manager; wildcards and order-by survive.  The stream is stratified:
   every round holds one pattern of each (shape, size) for sizes 4..16,
   in seeded order, so every run sees the same mix of sizes.  Patterns
   are distinct by structural fingerprint, so none repeats. *)

let min_nodes = 4
let max_nodes = 16
let novel_patterns = 12_000

let relabel rand pat =
  let n = Pattern.node_count pat in
  let edges = Pattern.edges pat in
  let has_child = Array.make n false in
  List.iter (fun (e : Pattern.edge) -> has_child.(e.anc) <- true) edges;
  let leaf_tags = [| "employee"; "department"; "name"; "manager"; "salary" |] in
  let labels =
    Array.init n (fun i ->
        let old = Pattern.label pat i in
        if old.Candidate.tag = None then Candidate.any
        else if has_child.(i) then Candidate.of_tag "manager"
        else Candidate.of_tag leaf_tags.(rand (Array.length leaf_tags)))
  in
  Pattern.create ?order_by:(Pattern.order_by pat) ~labels
    ~edges:
      (Array.of_list
         (List.map (fun (e : Pattern.edge) -> (e.anc, e.axis, e.desc)) edges))
    ()

let optimize_novel ~seed dir =
  write_doc
    (Filename.concat dir "doc.xml")
    (Sjos_datagen.Pers.generate ~seed ~target_nodes:pers_nodes ());
  (* Table 2 is pinned on the paper's default Pers document, whatever
     the seed *)
  write_doc
    (Filename.concat dir "table2.xml")
    (Sjos_engine.Workload.generate ~size:pers_nodes Sjos_engine.Workload.Pers);
  let rand = rng seed in
  let seen = Hashtbl.create novel_patterns in
  let out = ref [] and count = ref 0 in
  let cells =
    Array.of_list
      (List.concat_map
         (fun shape ->
           List.init (max_nodes - min_nodes + 1) (fun k -> (shape, min_nodes + k)))
         Shapes.all_gen_shapes)
  in
  while !count < novel_patterns do
    shuffle rand cells;
    Array.iter
      (fun (shape, nodes) ->
        (* redraw until the fingerprint is new and the text round-trips *)
        let rec draw tries =
          if tries > 0 then begin
            let skel = Shapes.generate ~seed:(rand 0x3FFFFFFF) ~nodes shape in
            let pat = relabel rand skel in
            let text = Pattern.to_string pat in
            let fp = Sjos_pattern.Fingerprint.fingerprint pat in
            let round_trips =
              match Sjos_pattern.Parse.pattern_opt text with
              | Ok p -> Sjos_pattern.Fingerprint.fingerprint p = fp
              | Error _ -> false
            in
            if round_trips && not (Hashtbl.mem seen fp) then begin
              Hashtbl.add seen fp ();
              out := text :: !out;
              incr count
            end
            else draw (tries - 1)
          end
        in
        if !count < novel_patterns then draw 50)
      cells
  done;
  Util.write_lines (Filename.concat dir "patterns.txt") (List.rev !out)

let run ~workload ~seed ~dir =
  match workload with
  | "cold-mbench" -> cold_mbench ~seed dir
  | "hot-serve" -> hot_serve ~seed dir
  | "optimize-novel" -> optimize_novel ~seed dir
  | w -> invalid_arg ("unknown workload " ^ w)
