(* Cross-layer integration tests: harness guarantees, scheduler waves,
   paper-level properties that span modules. *)

module W = Repro_workloads
module R = Repro_core
module T = R.Technique
module Warp_ctx = Repro_gpu.Warp_ctx
module Label = Repro_gpu.Label
module Stats = Repro_gpu.Stats
module Device = Repro_gpu.Device
module Config = Repro_gpu.Config
module Page_store = Repro_mem.Page_store

let check = Alcotest.check

(* --- harness ------------------------------------------------------------ *)

(* A deliberately technique-dependent "workload": its result is the
   dispatch technique's name hash, so cross-technique validation must
   reject it. Guards the guard. *)
let treacherous_workload =
  let build (p : W.Workload.params) =
    let rt = R.Runtime.create ~technique:p.W.Workload.technique () in
    let impl = R.Runtime.register_impl rt ~name:"noop" (fun _ _ -> ()) in
    let t = R.Runtime.define_type rt ~name:"T" ~field_words:1 ~slots:[| impl |] () in
    ignore (R.Runtime.new_obj rt t);
    {
      W.Workload.rt;
      iterations = 1;
      run_iteration = (fun _ -> ());
      result = (fun () -> Hashtbl.hash (T.name p.W.Workload.technique));
    }
  in
  {
    W.Workload.name = "TREACHEROUS";
    suite = "test";
    description = "technique-dependent result, must be rejected";
    paper_objects = 1;
    paper_types = 1;
    build;
  }

(* Every default `repro sweep` cell at scale 0.02: (workload, column,
   [Harness.digest]). The digests were produced by the retired
   per-lane emission engine (exact-width address arrays, a fresh trace
   per warp, replay through the reference loop), and the interned engine
   matched it on every cell, so this table pins today's single engine to
   that reference. A change that moves any counter, heap word or result
   fails here; a deliberate model change regenerates the table and says
   why. *)
let frozen_sweep_digests =
  [
    ("Dynasoar/TRAF", "CUDA", "2c3badd9e3a6885c71440aa4d9ff3bf9");
    ("Dynasoar/TRAF", "CON", "2f1ec116cc781fe67f4fd61697ab3f97");
    ("Dynasoar/TRAF", "SHARD", "ffa8fd8fd59d01bfd40c1d2fee36a6b9");
    ("Dynasoar/TRAF", "COAL", "52f159f93a5e61757270b50454ec2620");
    ("Dynasoar/TRAF", "TP", "ca1e0087d3dcfbce90e1e9f1db2a2490");
    ("Dynasoar/TRAF", "DYNA", "aaeee2f16e8b22fbaff473112df33879");
    ("Dynasoar/GOL", "CUDA", "98237482bde8f4f2ce06731c983aaa3c");
    ("Dynasoar/GOL", "CON", "529d824dd68ee975030a7d55ec36a55c");
    ("Dynasoar/GOL", "SHARD", "02dfd1a9680893065b1e2857eae41188");
    ("Dynasoar/GOL", "COAL", "65132234b97da3796335c49eaadedcf1");
    ("Dynasoar/GOL", "TP", "f1a0c9e51c1dde094dfa9c23915eafb4");
    ("Dynasoar/GOL", "DYNA", "8bcbba1a067ed2339ffe891603ea66fd");
    ("Dynasoar/STUT", "CUDA", "d0fb363c9dcb24bbd0b3f7998074c320");
    ("Dynasoar/STUT", "CON", "9ba8a5f90b5816d9a6211dddc119bf88");
    ("Dynasoar/STUT", "SHARD", "6f64580e0cd7d3e7de7142d3167c9409");
    ("Dynasoar/STUT", "COAL", "84cabff364e9ff594a39e3892ee4f947");
    ("Dynasoar/STUT", "TP", "f3b2dd9bbdde1952f8b69d3a308791de");
    ("Dynasoar/STUT", "DYNA", "ff8607f160fca2c471b12372bc28d37d");
    ("Dynasoar/GEN", "CUDA", "a6485df9f9690aedad98a59b3d02825b");
    ("Dynasoar/GEN", "CON", "4f0c5e20a8b659b4c3701307057f16e6");
    ("Dynasoar/GEN", "SHARD", "a3af04d2d707b8b60e59e65d43f1de0c");
    ("Dynasoar/GEN", "COAL", "19fb6451d1153d08479257c7bfd9fa64");
    ("Dynasoar/GEN", "TP", "9e5c15a23aa946f18b2550b235e038ae");
    ("Dynasoar/GEN", "DYNA", "ff3e83045a0d77641c5ec636e4f28117");
    ("GraphChi-vE/BFS", "CUDA", "604920a6faa944391630390cf35449c8");
    ("GraphChi-vE/BFS", "CON", "07085832a3e238e5a669719f7b265ff0");
    ("GraphChi-vE/BFS", "SHARD", "d47882291f46db94524242ecec664b67");
    ("GraphChi-vE/BFS", "COAL", "24721af43155cca5cf50198450659733");
    ("GraphChi-vE/BFS", "TP", "596f4e17470f6021ad44e34ca1998a79");
    ("GraphChi-vE/BFS", "DYNA", "757aa664c689a3c917c5e4f9db0cc01d");
    ("GraphChi-vE/CC", "CUDA", "37818b13e3867e5de1e94005b282f7f3");
    ("GraphChi-vE/CC", "CON", "0c53c02a82b04ef4e261150de9754154");
    ("GraphChi-vE/CC", "SHARD", "98a8fa110a045319711b314c85989e57");
    ("GraphChi-vE/CC", "COAL", "5a427b90fb8efe80b608d7ffc24157f4");
    ("GraphChi-vE/CC", "TP", "55be252650d58d4c06a08aa824d84225");
    ("GraphChi-vE/CC", "DYNA", "8366ba3a4e4c2799585cbbf5989c4037");
    ("GraphChi-vE/PR", "CUDA", "de9bb57899f27bc2fa074c6ae5fba775");
    ("GraphChi-vE/PR", "CON", "95ce7ccbd17271f212004973ab476a86");
    ("GraphChi-vE/PR", "SHARD", "11271a79ec72ee9091afac7cc77d1429");
    ("GraphChi-vE/PR", "COAL", "e400ad78d119f03193772f0fac647946");
    ("GraphChi-vE/PR", "TP", "441eafd82122679d9bf12e28803e91a2");
    ("GraphChi-vE/PR", "DYNA", "56e94300b6756275e3fa93492cddb7ff");
    ("GraphChi-vEN/BFS", "CUDA", "88b0950791d9c1b9428812b44879b6d6");
    ("GraphChi-vEN/BFS", "CON", "d0ca8223e24683f88ce1d5b900ee3a3d");
    ("GraphChi-vEN/BFS", "SHARD", "2eb99047aa439802b7da0a11556cd354");
    ("GraphChi-vEN/BFS", "COAL", "c703e108f1aaa38cf3f6f0898b589185");
    ("GraphChi-vEN/BFS", "TP", "855492bdbcdc8512c566e91e26feb434");
    ("GraphChi-vEN/BFS", "DYNA", "2e9ff8e71f90b070467630f391c170ad");
    ("GraphChi-vEN/CC", "CUDA", "06b526a5efde4917b23770d52a77cec4");
    ("GraphChi-vEN/CC", "CON", "974ac94701b71d85b8559c699d692f84");
    ("GraphChi-vEN/CC", "SHARD", "8ec9bdb2cd0b96b91ec6754c581911b5");
    ("GraphChi-vEN/CC", "COAL", "3f6278dbc76d775316e7b023b9a8b3ae");
    ("GraphChi-vEN/CC", "TP", "3d5b858a978ff2986c5acbe361b64d5a");
    ("GraphChi-vEN/CC", "DYNA", "513826117eb7ea4e33cf4e04100375a6");
    ("GraphChi-vEN/PR", "CUDA", "cc9b3f8a950f9822b5c602a9cb991b65");
    ("GraphChi-vEN/PR", "CON", "00032f706201639f7845cc6b1ffec08b");
    ("GraphChi-vEN/PR", "SHARD", "42c8eaa0760a52ec0a75d4b063c050cb");
    ("GraphChi-vEN/PR", "COAL", "6e679d4c15a4f51d8780c72fdd3a508c");
    ("GraphChi-vEN/PR", "TP", "29a8c8831ef0048abdaa95249cdd17db");
    ("GraphChi-vEN/PR", "DYNA", "c7cbd5ccbc75751b7f0ea3c25a0bedb9");
    ("RAY/RAY", "CUDA", "fc8dd8378076be242db225b4348d2e2a");
    ("RAY/RAY", "CON", "e7af4764984e9740dc632818d49b28de");
    ("RAY/RAY", "SHARD", "1bb1ff86c97c1d3b5e3ae4ecbecd7643");
    ("RAY/RAY", "COAL", "1bb1ff86c97c1d3b5e3ae4ecbecd7643");
    ("RAY/RAY", "TP", "2c4b88bbfdcce403a02fe6e16e50817a");
    ("RAY/RAY", "DYNA", "235830ddf5c44f305e1fee954ad8d568");
  ]

let test_frozen_sweep_digests () =
  let sweep = Repro_experiments.Sweep.exec ~scale:0.02 () in
  let cells =
    List.concat_map
      (fun workload ->
        List.map
          (fun column ->
            let run =
              Repro_experiments.Sweep.get_column sweep ~workload ~column
            in
            (workload, Repro_experiments.Sweep.column_name column,
             W.Harness.digest run))
          (Repro_experiments.Sweep.columns sweep))
      (Repro_experiments.Sweep.workload_names sweep)
  in
  check Alcotest.int "cell count" (List.length frozen_sweep_digests)
    (List.length cells);
  List.iter2
    (fun (w, c, want) (w', c', got) ->
      check Alcotest.(pair string string) "cell order" (w, c) (w', c');
      check Alcotest.string (w ^ " " ^ c ^ " digest") want got)
    frozen_sweep_digests cells

(* The same default sweep cells at scale 0.02 under each page-size
   policy: (policy, workload, column, [Harness.digest]). Produced by the
   deleted reference replay loop (with the memory-path load/store
   walkers), which was the only loop that handled translation; this
   table pins the one replay loop's translated timing to it. *)
let frozen_translated_digests =
  [
    ("flat-4k", "Dynasoar/TRAF", "CUDA", "d2fbcc7842b02e02a54e5aa6ac1aa341");
    ("flat-4k", "Dynasoar/TRAF", "CON", "1f3fd8df8e81d3dd2ef838926fc315dc");
    ("flat-4k", "Dynasoar/TRAF", "SHARD", "8261d6297422751ba45c6c8931c2de50");
    ("flat-4k", "Dynasoar/TRAF", "COAL", "b72f4a3400bca28ec7066c19423cd474");
    ("flat-4k", "Dynasoar/TRAF", "TP", "c376a23b5fd7aab7ccef057b3fc22e7b");
    ("flat-4k", "Dynasoar/TRAF", "DYNA", "ea89b858e58c6265f65fcea0eb001daf");
    ("flat-4k", "Dynasoar/GOL", "CUDA", "78abf986bafb97ea616de82ef37242f7");
    ("flat-4k", "Dynasoar/GOL", "CON", "5ac120e37af8de2fa25acd4a071b0f59");
    ("flat-4k", "Dynasoar/GOL", "SHARD", "77ddde9070c7108a27c5d1546884c224");
    ("flat-4k", "Dynasoar/GOL", "COAL", "9351622503fc82774a4fdf955a6ac430");
    ("flat-4k", "Dynasoar/GOL", "TP", "09acfbfd6f1ac8591ad7e48074b217b2");
    ("flat-4k", "Dynasoar/GOL", "DYNA", "e104906a18a80c46e9fd27b3278929df");
    ("flat-4k", "Dynasoar/STUT", "CUDA", "a00b51ebc5344afade8a38775dbade37");
    ("flat-4k", "Dynasoar/STUT", "CON", "1ad1c1416f867f6c4e22125873d2e8e3");
    ("flat-4k", "Dynasoar/STUT", "SHARD", "72248efa050cc0d26937b329d8eb3384");
    ("flat-4k", "Dynasoar/STUT", "COAL", "e14fccae8b7f8a92651d10a8df4b994b");
    ("flat-4k", "Dynasoar/STUT", "TP", "75416dbe272880f53f6cf3fe3a00d161");
    ("flat-4k", "Dynasoar/STUT", "DYNA", "f26211544689bad7da2d7f7ff1e89f8c");
    ("flat-4k", "Dynasoar/GEN", "CUDA", "8753b8b9c31358925a9341964dec71bb");
    ("flat-4k", "Dynasoar/GEN", "CON", "9fc79068c17dc71fb11d5915c50c229d");
    ("flat-4k", "Dynasoar/GEN", "SHARD", "0765d1ef542496dd1878945eb98bf4e8");
    ("flat-4k", "Dynasoar/GEN", "COAL", "028f80ccbcdb6ab19b31f764ced15ba8");
    ("flat-4k", "Dynasoar/GEN", "TP", "0b5163fe24416a3cacf2fe9e9915f5dd");
    ("flat-4k", "Dynasoar/GEN", "DYNA", "ad0fbbbc992cbc5fd54c8dd648fb161d");
    ("flat-4k", "GraphChi-vE/BFS", "CUDA", "c4596364cba62b0554adabbc47431573");
    ("flat-4k", "GraphChi-vE/BFS", "CON", "ebfcd447acb796c6bb84dd4e333feffd");
    ("flat-4k", "GraphChi-vE/BFS", "SHARD", "cdc52c7de1000d0573e93b5cca574ecb");
    ("flat-4k", "GraphChi-vE/BFS", "COAL", "c02dbefe78f11f90876ee564ec6239c6");
    ("flat-4k", "GraphChi-vE/BFS", "TP", "c1a66d3823a5ba0756aaba3fe1196d32");
    ("flat-4k", "GraphChi-vE/BFS", "DYNA", "92b1ff473f8587d9d230c61c23aeb1d2");
    ("flat-4k", "GraphChi-vE/CC", "CUDA", "8393b2f8453579981f888900f87e6076");
    ("flat-4k", "GraphChi-vE/CC", "CON", "c8b5e6e159c4c87b8d57fb813ed269a1");
    ("flat-4k", "GraphChi-vE/CC", "SHARD", "2706cc9f639f8b201c111892942b59e1");
    ("flat-4k", "GraphChi-vE/CC", "COAL", "e58f5c2b7352612ae70584f2570fa584");
    ("flat-4k", "GraphChi-vE/CC", "TP", "a734e3be77cf34f511204befc892b9d9");
    ("flat-4k", "GraphChi-vE/CC", "DYNA", "55b37714f4a38b25240ee43171a05309");
    ("flat-4k", "GraphChi-vE/PR", "CUDA", "d1f4b0fbc74672e966d2cc8fc2a93b95");
    ("flat-4k", "GraphChi-vE/PR", "CON", "3134d69cb9350ad77072b46422428aa9");
    ("flat-4k", "GraphChi-vE/PR", "SHARD", "872d9708b7d2aa63ba0c31b39f301609");
    ("flat-4k", "GraphChi-vE/PR", "COAL", "3226a4e398becdced0e8a31958fb8211");
    ("flat-4k", "GraphChi-vE/PR", "TP", "57b1f31eb51fdb2fc93a460a647c6c3e");
    ("flat-4k", "GraphChi-vE/PR", "DYNA", "5b80f4427223b3d4f2aec31cc726db59");
    ("flat-4k", "GraphChi-vEN/BFS", "CUDA", "5c123824ba5e4a785d242c96ba6b0e47");
    ("flat-4k", "GraphChi-vEN/BFS", "CON", "a6702df15bf19e7ed10ae61ca519d5d2");
    ("flat-4k", "GraphChi-vEN/BFS", "SHARD", "f315da10575e79efc28537346a7af2b5");
    ("flat-4k", "GraphChi-vEN/BFS", "COAL", "42350808b7a03c211de6e4f42ad09f7b");
    ("flat-4k", "GraphChi-vEN/BFS", "TP", "6e77eefe2ad4281e1aa24a9ab000e5ca");
    ("flat-4k", "GraphChi-vEN/BFS", "DYNA", "0f667752ccd2339ac1a0fe8848f6c127");
    ("flat-4k", "GraphChi-vEN/CC", "CUDA", "eac9e778d27fb1d856638bb2431308e8");
    ("flat-4k", "GraphChi-vEN/CC", "CON", "e4531dd1d0b63a0383ea2f92a0016df3");
    ("flat-4k", "GraphChi-vEN/CC", "SHARD", "28b2ba515ecab8808618a5af61826bb1");
    ("flat-4k", "GraphChi-vEN/CC", "COAL", "b31e2a17145ddfaa8857bb36438f80e6");
    ("flat-4k", "GraphChi-vEN/CC", "TP", "a34e2be7c064d00d9adeb434468e1a36");
    ("flat-4k", "GraphChi-vEN/CC", "DYNA", "f0d687b210814e2a024483ba6d8f4c25");
    ("flat-4k", "GraphChi-vEN/PR", "CUDA", "895fc2c6686a5d6c5f6b63e6c7e13667");
    ("flat-4k", "GraphChi-vEN/PR", "CON", "f59614d057f4d5122f8382366ef8d42e");
    ("flat-4k", "GraphChi-vEN/PR", "SHARD", "f2b5834183b1b717a28779e7180c8eeb");
    ("flat-4k", "GraphChi-vEN/PR", "COAL", "2d1059819409cd812d6541a391c3074f");
    ("flat-4k", "GraphChi-vEN/PR", "TP", "0b145a9db7f1fa6e197967d3bd8d559d");
    ("flat-4k", "GraphChi-vEN/PR", "DYNA", "7fa6c6d7b67f7cf445eba722b60638f9");
    ("flat-4k", "RAY/RAY", "CUDA", "c55ff988708b00db81172299c3b965d7");
    ("flat-4k", "RAY/RAY", "CON", "0ba6bc4250f7bade0b1d2e3887735026");
    ("flat-4k", "RAY/RAY", "SHARD", "8fa2414b52e8d807c917a614e3f331fa");
    ("flat-4k", "RAY/RAY", "COAL", "8fa2414b52e8d807c917a614e3f331fa");
    ("flat-4k", "RAY/RAY", "TP", "efec75a87522fbbb3b6686f14a2cbe9d");
    ("flat-4k", "RAY/RAY", "DYNA", "aaadde19caeb8ea018b46963a46b5aaf");
    ("flat-2m", "Dynasoar/TRAF", "CUDA", "dbecbf2b1c6be13fd310f9607be4549c");
    ("flat-2m", "Dynasoar/TRAF", "CON", "2fa99ca81febb65a3adb710fb444fa93");
    ("flat-2m", "Dynasoar/TRAF", "SHARD", "6a092fa6856bc4bde6372ee6535cda2f");
    ("flat-2m", "Dynasoar/TRAF", "COAL", "136f5684279f95726bfcc0d413a59d46");
    ("flat-2m", "Dynasoar/TRAF", "TP", "b96847f7096f9c1c6f143e073ff99614");
    ("flat-2m", "Dynasoar/TRAF", "DYNA", "bc94b04dbec35cc2538b84f56547e111");
    ("flat-2m", "Dynasoar/GOL", "CUDA", "7d0e5953944d689c342a9bbfcd955845");
    ("flat-2m", "Dynasoar/GOL", "CON", "690effada5fce2440dc370d61022515c");
    ("flat-2m", "Dynasoar/GOL", "SHARD", "6afe0480f77145a249ade9d9f9dff038");
    ("flat-2m", "Dynasoar/GOL", "COAL", "43700e68fe88ec96b8009b9be91a0f35");
    ("flat-2m", "Dynasoar/GOL", "TP", "33c3b97a3c157f23089b30aad882ebef");
    ("flat-2m", "Dynasoar/GOL", "DYNA", "913f603a39762085f56b20863d7ddcdb");
    ("flat-2m", "Dynasoar/STUT", "CUDA", "3d4570e02ad363b387bae2d670fe575e");
    ("flat-2m", "Dynasoar/STUT", "CON", "69054f37726f456416ce567ea63c2c6b");
    ("flat-2m", "Dynasoar/STUT", "SHARD", "e53a1a35239a0bd580722f94e6113ab2");
    ("flat-2m", "Dynasoar/STUT", "COAL", "1b0c4b86f000d2ff952ddabfec9072d7");
    ("flat-2m", "Dynasoar/STUT", "TP", "ada272eceba19cde980b5f150cefc4cc");
    ("flat-2m", "Dynasoar/STUT", "DYNA", "18be8d242efd7a10ae9a21d0415a91dc");
    ("flat-2m", "Dynasoar/GEN", "CUDA", "76c3589b1d975ac040375700b5535715");
    ("flat-2m", "Dynasoar/GEN", "CON", "d4c929ee94a4d997ac28d776ad553afe");
    ("flat-2m", "Dynasoar/GEN", "SHARD", "7edbb29bcbf1ef8099e4c7b16139f6c1");
    ("flat-2m", "Dynasoar/GEN", "COAL", "a80c85a33827c59a5d3e3221dd321be4");
    ("flat-2m", "Dynasoar/GEN", "TP", "8d7e9a18bedaa133f580742796824bf4");
    ("flat-2m", "Dynasoar/GEN", "DYNA", "abb7a0b90fbc351a13b4c316d0e440ea");
    ("flat-2m", "GraphChi-vE/BFS", "CUDA", "c951bf42dfe5cae0f15b0d6ed304c8f4");
    ("flat-2m", "GraphChi-vE/BFS", "CON", "1354494f8141691a479ccc509437677f");
    ("flat-2m", "GraphChi-vE/BFS", "SHARD", "8a6e4fc4a28e5296864263ea2f25f841");
    ("flat-2m", "GraphChi-vE/BFS", "COAL", "27c3fbc039016910176c1644498aad3c");
    ("flat-2m", "GraphChi-vE/BFS", "TP", "3c11b9b41ecfe85c268fd300acca4f4d");
    ("flat-2m", "GraphChi-vE/BFS", "DYNA", "32978b719760af49816dccd229759007");
    ("flat-2m", "GraphChi-vE/CC", "CUDA", "bba9f28d6e76df3a63732aa653bd9518");
    ("flat-2m", "GraphChi-vE/CC", "CON", "6d0708b3b637f4215319cdaf9cffd952");
    ("flat-2m", "GraphChi-vE/CC", "SHARD", "a8afaf405f6b67887fedb1168fd11c87");
    ("flat-2m", "GraphChi-vE/CC", "COAL", "3fa8b4cda46f6131d5ca84cce232daa2");
    ("flat-2m", "GraphChi-vE/CC", "TP", "747c733d7bf70db2288ff2722b6e0b18");
    ("flat-2m", "GraphChi-vE/CC", "DYNA", "70b4fabfe7d50cda04cca3eff7a14ec3");
    ("flat-2m", "GraphChi-vE/PR", "CUDA", "81cfe9919aac92983d8d67340a96a329");
    ("flat-2m", "GraphChi-vE/PR", "CON", "8e38651b1ff88d407e02e6d117ae191e");
    ("flat-2m", "GraphChi-vE/PR", "SHARD", "a210634a3b9c329264d51608cdfc0688");
    ("flat-2m", "GraphChi-vE/PR", "COAL", "fe5be587e2f8e437c98ec3a56efe276f");
    ("flat-2m", "GraphChi-vE/PR", "TP", "24a3cc3e818820ef287a5b6f03dfdeb2");
    ("flat-2m", "GraphChi-vE/PR", "DYNA", "4f598dff644eadb19260ff4ad3221cf6");
    ("flat-2m", "GraphChi-vEN/BFS", "CUDA", "5fa424b246d20f8f7426eaa2eb64fb87");
    ("flat-2m", "GraphChi-vEN/BFS", "CON", "7635ad9b1ca71d6fa619448280b1d764");
    ("flat-2m", "GraphChi-vEN/BFS", "SHARD", "c97e399776588dc6d89bc67129afada9");
    ("flat-2m", "GraphChi-vEN/BFS", "COAL", "63ad8757860bcf2332348daf4d450066");
    ("flat-2m", "GraphChi-vEN/BFS", "TP", "c1af8361407c39239d05d67be224ddb7");
    ("flat-2m", "GraphChi-vEN/BFS", "DYNA", "6ffbe6662e0c4b860207a2b5a408936c");
    ("flat-2m", "GraphChi-vEN/CC", "CUDA", "a698af45611874dddbcc50c6e7afcf74");
    ("flat-2m", "GraphChi-vEN/CC", "CON", "ca0c0184764afec50f41c5b3b7ce9ea8");
    ("flat-2m", "GraphChi-vEN/CC", "SHARD", "781a6c9596b0d0285fc7fe5da3b4d45c");
    ("flat-2m", "GraphChi-vEN/CC", "COAL", "ac555b8f69d4dd878d37defb286c2395");
    ("flat-2m", "GraphChi-vEN/CC", "TP", "9b5bde41f47d4f5707aa30334e7bea45");
    ("flat-2m", "GraphChi-vEN/CC", "DYNA", "f684fc00a6f8860d28f9c64ff464bdb7");
    ("flat-2m", "GraphChi-vEN/PR", "CUDA", "81ae6449aa163514953c92901a53a774");
    ("flat-2m", "GraphChi-vEN/PR", "CON", "6acf77dc21d1ba857977dfd8b93e8411");
    ("flat-2m", "GraphChi-vEN/PR", "SHARD", "1b72bc0c1c9383ff9d6fa9a35530960e");
    ("flat-2m", "GraphChi-vEN/PR", "COAL", "56d3e7d04156c27de7798352bdcbd32f");
    ("flat-2m", "GraphChi-vEN/PR", "TP", "0cefe3147d9dc7d39540323c25c0b84d");
    ("flat-2m", "GraphChi-vEN/PR", "DYNA", "c10683b189ba9486b3541923910e02cb");
    ("flat-2m", "RAY/RAY", "CUDA", "5b95e181a5865100d4d4a2dde8f68e14");
    ("flat-2m", "RAY/RAY", "CON", "b5652455a3857d0734888990691764bb");
    ("flat-2m", "RAY/RAY", "SHARD", "4951dc1f60b8dfba7ebac54f09ee81d3");
    ("flat-2m", "RAY/RAY", "COAL", "4951dc1f60b8dfba7ebac54f09ee81d3");
    ("flat-2m", "RAY/RAY", "TP", "8fa881bb4597613a512a17860b319af2");
    ("flat-2m", "RAY/RAY", "DYNA", "85abf077be386b54b8f91994cce688a8");
    ("coalesce", "Dynasoar/TRAF", "CUDA", "d2fbcc7842b02e02a54e5aa6ac1aa341");
    ("coalesce", "Dynasoar/TRAF", "CON", "1f3fd8df8e81d3dd2ef838926fc315dc");
    ("coalesce", "Dynasoar/TRAF", "SHARD", "a8126d94f6ef4c47b11be11dfd082fcb");
    ("coalesce", "Dynasoar/TRAF", "COAL", "c191e4d0d6c124ab79200baff3da44e9");
    ("coalesce", "Dynasoar/TRAF", "TP", "7780814b6bd25b2756140cd6c92a1a79");
    ("coalesce", "Dynasoar/TRAF", "DYNA", "ea89b858e58c6265f65fcea0eb001daf");
    ("coalesce", "Dynasoar/GOL", "CUDA", "78abf986bafb97ea616de82ef37242f7");
    ("coalesce", "Dynasoar/GOL", "CON", "5ac120e37af8de2fa25acd4a071b0f59");
    ("coalesce", "Dynasoar/GOL", "SHARD", "d7908fd9dce76795418ff2a308ba1d71");
    ("coalesce", "Dynasoar/GOL", "COAL", "1ac54061d8df7e063288da470ff97e37");
    ("coalesce", "Dynasoar/GOL", "TP", "5c9df2b2edc16f977f4045c13fcf090f");
    ("coalesce", "Dynasoar/GOL", "DYNA", "e104906a18a80c46e9fd27b3278929df");
    ("coalesce", "Dynasoar/STUT", "CUDA", "a00b51ebc5344afade8a38775dbade37");
    ("coalesce", "Dynasoar/STUT", "CON", "1ad1c1416f867f6c4e22125873d2e8e3");
    ("coalesce", "Dynasoar/STUT", "SHARD", "1fd1a8243c80958ea8ce6c7a4d72f7f9");
    ("coalesce", "Dynasoar/STUT", "COAL", "309c33e8eb27b19f313a0ab79caee863");
    ("coalesce", "Dynasoar/STUT", "TP", "f946e1a77758eb9e7ec2b9bc2449f96b");
    ("coalesce", "Dynasoar/STUT", "DYNA", "f26211544689bad7da2d7f7ff1e89f8c");
    ("coalesce", "Dynasoar/GEN", "CUDA", "8753b8b9c31358925a9341964dec71bb");
    ("coalesce", "Dynasoar/GEN", "CON", "9fc79068c17dc71fb11d5915c50c229d");
    ("coalesce", "Dynasoar/GEN", "SHARD", "e8b00a6b62220b1ed10e848594ef5454");
    ("coalesce", "Dynasoar/GEN", "COAL", "e775e24bffb9c3695a97c8b6ef5f518f");
    ("coalesce", "Dynasoar/GEN", "TP", "1139c07f1381420808768f7bc6f58db1");
    ("coalesce", "Dynasoar/GEN", "DYNA", "ad0fbbbc992cbc5fd54c8dd648fb161d");
    ("coalesce", "GraphChi-vE/BFS", "CUDA", "c4596364cba62b0554adabbc47431573");
    ("coalesce", "GraphChi-vE/BFS", "CON", "ebfcd447acb796c6bb84dd4e333feffd");
    ("coalesce", "GraphChi-vE/BFS", "SHARD", "0b9eb394d12a38f3ed4cf68c81948b61");
    ("coalesce", "GraphChi-vE/BFS", "COAL", "c77a00efca15c7a350a0569df09a4dda");
    ("coalesce", "GraphChi-vE/BFS", "TP", "076935d7c60918d235438b855598bef2");
    ("coalesce", "GraphChi-vE/BFS", "DYNA", "92b1ff473f8587d9d230c61c23aeb1d2");
    ("coalesce", "GraphChi-vE/CC", "CUDA", "8393b2f8453579981f888900f87e6076");
    ("coalesce", "GraphChi-vE/CC", "CON", "c8b5e6e159c4c87b8d57fb813ed269a1");
    ("coalesce", "GraphChi-vE/CC", "SHARD", "39272c7207b9e9c3ea21bab26a0abdd3");
    ("coalesce", "GraphChi-vE/CC", "COAL", "56bf416f1e4a64608dca0ad14c198961");
    ("coalesce", "GraphChi-vE/CC", "TP", "dd00f6a29956ac726481029f2f19fcf6");
    ("coalesce", "GraphChi-vE/CC", "DYNA", "55b37714f4a38b25240ee43171a05309");
    ("coalesce", "GraphChi-vE/PR", "CUDA", "d1f4b0fbc74672e966d2cc8fc2a93b95");
    ("coalesce", "GraphChi-vE/PR", "CON", "3134d69cb9350ad77072b46422428aa9");
    ("coalesce", "GraphChi-vE/PR", "SHARD", "129b0e49208d952b3b3d30a660c5c971");
    ("coalesce", "GraphChi-vE/PR", "COAL", "52bb8c965c193c58bc86f0ebc2d2d9e1");
    ("coalesce", "GraphChi-vE/PR", "TP", "1753656f9e0dbc4f7cca2be536a485dd");
    ("coalesce", "GraphChi-vE/PR", "DYNA", "5b80f4427223b3d4f2aec31cc726db59");
    ("coalesce", "GraphChi-vEN/BFS", "CUDA", "5c123824ba5e4a785d242c96ba6b0e47");
    ("coalesce", "GraphChi-vEN/BFS", "CON", "a6702df15bf19e7ed10ae61ca519d5d2");
    ("coalesce", "GraphChi-vEN/BFS", "SHARD", "6b147f06c98741dc589ba0d56c2f20e8");
    ("coalesce", "GraphChi-vEN/BFS", "COAL", "2bf465a63b117ba9e7df8d334327b450");
    ("coalesce", "GraphChi-vEN/BFS", "TP", "b94aefaa7912b621a78a0ed757bf0517");
    ("coalesce", "GraphChi-vEN/BFS", "DYNA", "0f667752ccd2339ac1a0fe8848f6c127");
    ("coalesce", "GraphChi-vEN/CC", "CUDA", "eac9e778d27fb1d856638bb2431308e8");
    ("coalesce", "GraphChi-vEN/CC", "CON", "e4531dd1d0b63a0383ea2f92a0016df3");
    ("coalesce", "GraphChi-vEN/CC", "SHARD", "8ce298c9722ecf6b23ef8ad8b138c31b");
    ("coalesce", "GraphChi-vEN/CC", "COAL", "68d31dd613ca5e5d7f392f7c9f48322b");
    ("coalesce", "GraphChi-vEN/CC", "TP", "7fb15a44d75e9e89b1e06bc3b1e9f8ff");
    ("coalesce", "GraphChi-vEN/CC", "DYNA", "f0d687b210814e2a024483ba6d8f4c25");
    ("coalesce", "GraphChi-vEN/PR", "CUDA", "895fc2c6686a5d6c5f6b63e6c7e13667");
    ("coalesce", "GraphChi-vEN/PR", "CON", "f59614d057f4d5122f8382366ef8d42e");
    ("coalesce", "GraphChi-vEN/PR", "SHARD", "2693fb0fec96d0c1663f9e7f92adb76c");
    ("coalesce", "GraphChi-vEN/PR", "COAL", "412201a5412e703e93804059336aaaf9");
    ("coalesce", "GraphChi-vEN/PR", "TP", "8f770a25962af54124f26b73f1b38a46");
    ("coalesce", "GraphChi-vEN/PR", "DYNA", "7fa6c6d7b67f7cf445eba722b60638f9");
    ("coalesce", "RAY/RAY", "CUDA", "c55ff988708b00db81172299c3b965d7");
    ("coalesce", "RAY/RAY", "CON", "0ba6bc4250f7bade0b1d2e3887735026");
    ("coalesce", "RAY/RAY", "SHARD", "88f143704ca29ce02ed39a248fa3519b");
    ("coalesce", "RAY/RAY", "COAL", "88f143704ca29ce02ed39a248fa3519b");
    ("coalesce", "RAY/RAY", "TP", "2016d63c0cec79b943e337db2bd3dc9b");
    ("coalesce", "RAY/RAY", "DYNA", "aaadde19caeb8ea018b46963a46b5aaf");
  ]

let test_frozen_translated_digests () =
  List.iter
    (fun policy ->
      let pname = Repro_vm.Policy.name policy in
      let want =
        List.filter (fun (p, _, _, _) -> p = pname) frozen_translated_digests
      in
      let sweep = Repro_experiments.Sweep.exec ~scale:0.02 ~pages:policy () in
      let got =
        List.concat_map
          (fun workload ->
            List.map
              (fun column ->
                let run =
                  Repro_experiments.Sweep.get_column sweep ~workload ~column
                in
                (pname, workload, Repro_experiments.Sweep.column_name column,
                 W.Harness.digest run))
              (Repro_experiments.Sweep.columns sweep))
          (Repro_experiments.Sweep.workload_names sweep)
      in
      check Alcotest.int (pname ^ " cell count") (List.length want)
        (List.length got);
      List.iter2
        (fun (_, w, c, d) (_, w', c', d') ->
          check Alcotest.(pair string string) "cell order" (w, c) (w', c');
          check Alcotest.string (pname ^ " " ^ w ^ " " ^ c ^ " digest") d d')
        want got)
    Repro_vm.Policy.all

(* Telemetry runs at scale 0.02 with a 256-cycle window and the event
   ring on: (workload, technique, pages, digest), where the digest is
   the MD5 of ([Harness.digest], every window row's [Stats.to_raw], the
   trace dump). Every workload under SHARD and TP, plus TRAF/TP under
   [coalesce] so TLB-walk ring events are pinned too. Produced by the
   deleted reference loop's telemetry drain. *)
let frozen_telemetry_digests =
  [
    ("Dynasoar/TRAF", "SHARD", "none", "bc2860ac55abcebd757156b80082aedd");
    ("Dynasoar/TRAF", "TP", "none", "c8cbf6bb1eeffb032ebe8d81ab256d5e");
    ("Dynasoar/GOL", "SHARD", "none", "efdcd79938703489a03f8a5f4531ed6e");
    ("Dynasoar/GOL", "TP", "none", "76f6b2299c32ea0095580d2738f2f6c2");
    ("Dynasoar/STUT", "SHARD", "none", "57342d1469bd2c537423d68cbf0c90fc");
    ("Dynasoar/STUT", "TP", "none", "317c98272773915cee6eb7cea2606feb");
    ("Dynasoar/GEN", "SHARD", "none", "42d8d1129869851fb00323f07a52d8fa");
    ("Dynasoar/GEN", "TP", "none", "990627f1999fb735d4a05aa725df8a25");
    ("GraphChi-vE/BFS", "SHARD", "none", "f6b2860db5807b06f833db52c705fe7d");
    ("GraphChi-vE/BFS", "TP", "none", "bf560687b25845353b8c32dffd78f7fe");
    ("GraphChi-vE/CC", "SHARD", "none", "fb019d158b7bd106478877de6fa1260b");
    ("GraphChi-vE/CC", "TP", "none", "197e0ce63e5fbb1723e15257367d358f");
    ("GraphChi-vE/PR", "SHARD", "none", "26c084483d3e5e5b261645617514b858");
    ("GraphChi-vE/PR", "TP", "none", "3c252185810ed1730802647d8d9485bb");
    ("GraphChi-vEN/BFS", "SHARD", "none", "abfe0a73b7212e1890a8f4de1f569e54");
    ("GraphChi-vEN/BFS", "TP", "none", "6d470ffbbdcb20bded5d59f72e2e6cc3");
    ("GraphChi-vEN/CC", "SHARD", "none", "1cf39e61a2ef8d1bcea69122a09de6ab");
    ("GraphChi-vEN/CC", "TP", "none", "00102ca881abe2b2f6e1cf9524a0551e");
    ("GraphChi-vEN/PR", "SHARD", "none", "d72f465f4aff86180ae7287d10a6c551");
    ("GraphChi-vEN/PR", "TP", "none", "277bc09b6ba5d7a83592b1a06cd4621c");
    ("RAY/RAY", "SHARD", "none", "9799e9e6d5d6685031b7d089226022e7");
    ("RAY/RAY", "TP", "none", "e768b6c6bb898a94219e32a9afda9c66");
    ("Dynasoar/TRAF", "TP", "coalesce", "cc3a03750e4cae661a8c7c93e3c7858e");
  ]

let test_frozen_telemetry_digests () =
  let tel =
    { Repro_gpu.Telemetry.window = Some 256; trace = true;
      trace_capacity = Repro_gpu.Telemetry.default_capacity }
  in
  List.iter
    (fun (wname, tname, pname, want) ->
      let w = Option.get (W.Registry.find wname) in
      let technique = Result.get_ok (T.of_string tname) in
      let pages = Result.get_ok (Repro_vm.Policy.parse pname) in
      let p =
        { (W.Workload.default_params technique) with
          W.Workload.scale = 0.02; telemetry = Some tel; pages }
      in
      let run = W.Harness.run w p in
      let got =
        Digest.to_hex
          (Digest.string
             (Marshal.to_string
                (W.Harness.digest run,
                 List.map (Array.map Stats.to_raw) run.W.Harness.kernel_windows,
                 run.W.Harness.trace)
                [ Marshal.No_sharing ]))
      in
      check Alcotest.string (wname ^ " " ^ tname ^ " " ^ pname) want got)
    frozen_telemetry_digests

let test_harness_rejects_functional_mismatch () =
  let p = W.Workload.default_params T.Shared_oa in
  match W.Harness.run_techniques treacherous_workload p [ T.Cuda; T.Coal ] with
  | _ -> Alcotest.fail "expected a functional-mismatch failure"
  | exception Failure msg ->
    check Alcotest.bool "mentions the mismatch" true
      (String.length msg > 0
       && String.sub msg 0 (min 7 (String.length msg)) = "Harness")

let test_harness_speedup_direction () =
  let w = Option.get (W.Registry.find "GEN") in
  let p = { (W.Workload.default_params T.Shared_oa) with W.Workload.scale = 0.05 } in
  let runs = W.Harness.run_techniques w p [ T.Cuda; T.Shared_oa ] in
  match runs with
  | [ (_, cuda); (_, shard) ] ->
    check Alcotest.bool "SharedOA speeds GEN up" true
      (W.Harness.speedup_vs ~baseline:cuda shard > 1.)
  | _ -> Alcotest.fail "expected two runs"

let test_workload_scaled () =
  let p = { (W.Workload.default_params T.Cuda) with W.Workload.scale = 0.5 } in
  check Alcotest.int "halves" 50 (W.Workload.scaled p 100);
  let tiny = { p with W.Workload.scale = 0.0001 } in
  check Alcotest.int "floor of one" 1 (W.Workload.scaled tiny 100)

(* --- emission allocation ------------------------------------------------ *)

(* Minor words the calling domain allocates inside a job's iterations
   (kernel bodies, sealing and, with the replay lane held off, the
   per-launch replay setup), summed over the six default columns of each
   workload at scale 0.02, with the simulated warp instructions they
   ran: (workload, minor words, warp instructions), words/instr in the
   comment. A deterministic
   proxy for emission cost, gated exactly: any change to how the
   emitting path allocates moves a count. The counts are those of the
   OCaml 5.1 native compiler; another compiler version may box or
   inline differently and needs the table re-recorded. *)
let frozen_emission_words =
  [
    ("Dynasoar/TRAF", 840003, 26362); (* 31.86 *)
    ("Dynasoar/GOL", 3203103, 126141); (* 25.39 *)
    ("Dynasoar/STUT", 1133381, 37254); (* 30.42 *)
    ("Dynasoar/GEN", 814314, 27312); (* 29.82 *)
    ("GraphChi-vE/BFS", 1529043, 31434); (* 48.64 *)
    ("GraphChi-vE/CC", 1554262, 33440); (* 46.48 *)
    ("GraphChi-vE/PR", 1275694, 29598); (* 43.10 *)
    ("GraphChi-vEN/BFS", 1685242, 35410); (* 47.59 *)
    ("GraphChi-vEN/CC", 1710758, 37416); (* 45.72 *)
    ("GraphChi-vEN/PR", 1298347, 31278); (* 41.51 *)
    ("RAY/RAY", 16366584, 1048464); (* 15.61 *)
  ]

let emission_words () =
  let per_job (job : Repro_exec.Job.t) =
    let w = job.Repro_exec.Job.workload in
    let words = ref 0. in
    let build p =
      let inst = w.W.Workload.build p in
      {
        inst with
        W.Workload.run_iteration =
          (fun i ->
            let w0 = Gc.minor_words () in
            inst.W.Workload.run_iteration i;
            words := !words +. (Gc.minor_words () -. w0));
      }
    in
    let run = W.Harness.run { w with W.Workload.build } job.Repro_exec.Job.params in
    (W.Registry.qualified_name w, int_of_float !words,
     Stats.total_instructions run.W.Harness.stats)
  in
  let cells =
    Repro_util.Spare_cores.hold (Repro_util.Spare_cores.available ())
      (fun () -> List.map per_job (Repro_experiments.Sweep.jobs ~scale:0.02 ()))
  in
  List.fold_left
    (fun acc (name, words, instrs) ->
      match acc with
      | (n, w, i) :: rest when n = name -> (n, w + words, i + instrs) :: rest
      | _ -> (name, words, instrs) :: acc)
    [] cells
  |> List.rev

let test_frozen_emission_words () =
  let got = emission_words () in
  check Alcotest.int "workload count" (List.length frozen_emission_words)
    (List.length got);
  List.iter2
    (fun (name, words, instrs) (name', words', instrs') ->
      check Alcotest.string "workload order" name name';
      check Alcotest.int (name ^ " warp instructions") instrs instrs';
      check Alcotest.int
        (Printf.sprintf "%s minor words (%.3f/instr frozen, %.3f/instr now)"
           name
           (float_of_int words /. float_of_int instrs)
           (float_of_int words' /. float_of_int instrs'))
        words words')
    frozen_emission_words got

(* --- scheduler waves ------------------------------------------------------ *)

let test_residency_waves_complete () =
  (* Launch far more warps than the device can host at once; everything
     must still execute exactly once. *)
  let heap = Page_store.create () in
  let cfg = { Config.default with Config.n_sms = 2; max_warps_per_sm = 4 } in
  let device = Device.create ~config:cfg ~heap () in
  let space = Repro_mem.Address_space.create () in
  let arena = Repro_mem.Address_space.reserve space ~name:"out" ~size:(1 lsl 20) in
  let n_threads = 32 * 64 in
  Device.launch device ~n_threads (fun ctx ->
      let tids = Warp_ctx.tids ctx in
      let addrs = Array.map (fun t -> arena.Repro_mem.Address_space.base + (8 * t)) tids in
      Warp_ctx.store ctx ~label:Label.Body addrs (Array.map (fun t -> t + 1) tids));
  let sum = ref 0 in
  for t = 0 to n_threads - 1 do
    sum := !sum + Page_store.load heap (arena.Repro_mem.Address_space.base + (8 * t))
  done;
  check Alcotest.int "every thread ran once" (n_threads * (n_threads + 1) / 2) !sum

let test_cycles_accumulate_across_launches () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  let kernel ctx = Warp_ctx.compute ctx ~label:Label.Body in
  Device.launch device ~n_threads:64 kernel;
  let after_one = Stats.cycles (Device.stats device) in
  Device.launch device ~n_threads:64 kernel;
  check Alcotest.bool "cycles accumulate" true
    (Stats.cycles (Device.stats device) > after_one);
  check Alcotest.int "two launches" 2 (Device.launches device)

(* --- paper-level cross-workload properties -------------------------------- *)

let tiny p = { (W.Workload.default_params T.Shared_oa) with W.Workload.scale = p }

let test_ven_has_higher_pki_than_ve () =
  (* Virtualizing the vertices adds calls: vEN's call density must exceed
     vE's (Table 2: 52.2 vs 35.9 for BFS). *)
  let pki name =
    let w = Option.get (W.Registry.find name) in
    (W.Harness.run w (tiny 0.05)).W.Harness.vfunc_pki
  in
  check Alcotest.bool "vEN > vE (BFS)" true
    (pki "GraphChi-vEN/BFS" > pki "GraphChi-vE/BFS")

let test_traffic_progresses () =
  let w = Option.get (W.Registry.find "TRAF") in
  let total_distance iterations =
    let inst = w.W.Workload.build { (tiny 0.05) with W.Workload.iterations = Some iterations } in
    for i = 0 to inst.W.Workload.iterations - 1 do
      inst.W.Workload.run_iteration i
    done;
    let rt = inst.W.Workload.rt in
    let om = R.Runtime.object_model rt in
    let heap = R.Runtime.heap rt in
    Array.fold_left
      (fun acc (ptr, typ) ->
        if R.Registry.type_name typ = "Car" then
          acc + R.Object_model.field_load_host om heap ~ptr ~field:3
        else acc)
      0
      (R.Runtime.allocations rt)
  in
  let short = total_distance 3 and long = total_distance 10 in
  check Alcotest.bool "cars keep moving" true (long > short && short > 0)

let test_footprints_reflect_allocators () =
  (* The default-CUDA model's padding must reserve several times more
     space than SharedOA for the same population (Sec. 8.2's packing). *)
  let w = Option.get (W.Registry.find "GEN") in
  let reserved technique =
    let p =
      { (tiny 0.05) with W.Workload.technique = technique; chunk_objs = Some 256 }
    in
    let r = W.Harness.run w p in
    r.W.Harness.alloc_stats.R.Allocator.reserved_bytes
  in
  let cuda = reserved T.Cuda and shard = reserved T.Shared_oa in
  check Alcotest.bool "padding costs space" true (cuda > 3 * shard)

let test_tagged_pointers_never_reach_memory () =
  (* End-to-end guard: a full TypePointer workload run must never leak a
     tagged address into the page store (the MMU strip is total). This
     passes iff every access path strips. *)
  let w = Option.get (W.Registry.find "GraphChi-vE/BFS") in
  let r = W.Harness.run w { (tiny 0.05) with W.Workload.technique = T.type_pointer } in
  check Alcotest.bool "ran" true (r.W.Harness.cycles > 0.)

let test_v100_like_config_runs () =
  let heap = Page_store.create () in
  let device = Device.create ~config:Config.v100_like ~heap () in
  Device.launch device ~n_threads:(32 * 100) (fun ctx ->
      Warp_ctx.compute ctx ~label:Label.Body);
  check Alcotest.bool "big config works" true (Stats.cycles (Device.stats device) > 0.)

let test_config_validation () =
  let bad = { Config.default with Config.issue_width = 0 } in
  Alcotest.check_raises "invalid config"
    (Invalid_argument "Config: issue_width must be positive") (fun () ->
      Config.validate bad)

let suite =
  [
    Alcotest.test_case "harness rejects mismatch" `Quick
      test_harness_rejects_functional_mismatch;
    Alcotest.test_case "frozen sweep digests at scale 0.02" `Quick
      test_frozen_sweep_digests;
    Alcotest.test_case "frozen translated sweep digests at scale 0.02" `Quick
      test_frozen_translated_digests;
    Alcotest.test_case "frozen telemetry digests at scale 0.02" `Quick
      test_frozen_telemetry_digests;
    Alcotest.test_case "frozen emission words per instruction at scale 0.02"
      `Quick test_frozen_emission_words;
    Alcotest.test_case "harness speedup direction" `Quick test_harness_speedup_direction;
    Alcotest.test_case "workload scaled" `Quick test_workload_scaled;
    Alcotest.test_case "residency waves complete" `Quick test_residency_waves_complete;
    Alcotest.test_case "cycles accumulate" `Quick test_cycles_accumulate_across_launches;
    Alcotest.test_case "vEN pki > vE pki" `Quick test_ven_has_higher_pki_than_ve;
    Alcotest.test_case "traffic progresses" `Quick test_traffic_progresses;
    Alcotest.test_case "allocator footprints" `Quick test_footprints_reflect_allocators;
    Alcotest.test_case "tagged pointers stripped end-to-end" `Quick
      test_tagged_pointers_never_reach_memory;
    Alcotest.test_case "v100-like config" `Quick test_v100_like_config_runs;
    Alcotest.test_case "config validation" `Quick test_config_validation;
  ]
