package sim

import (
	"fmt"
	"math"
	"testing"

	"coscale/internal/core"
	"coscale/internal/fault"
	"coscale/internal/policy"
	"coscale/internal/workload"
)

// The scratch-buffer refactor (DESIGN.md §7) must not change any simulation
// output. These golden values were captured from the pre-refactor engine
// (allocating per call) at InstrBudget 16M and are compared bit-for-bit:
// the reusable buffers, the memoizing trace.Sampler and Solver.SolveInto
// all promise results identical to their allocating predecessors. The rows
// for the five §3.2 comparison policies were captured the same way, before
// their searches moved onto the memoized prediction tables (DESIGN.md §4).
// The migrating and fault-injected rows were captured before the engine
// began reusing unchanged ground truth (DESIGN.md §7): they pin that reuse
// to thread placement and to the actuation path's real settings. The
// PowerCap row (a binding cap at the default bound) and the Hardened row
// (stale counters that trip the watchdog) were captured before every
// controller began keeping its slack through policy.SlackBook: they pin
// PowerCap's slack accounting and the watchdog's deficit tracker.

type goldenApp struct {
	name   string
	instr  uint64
	finish uint64 // math.Float64bits of FinishTime
}

type goldenRun struct {
	mix     string
	policy  string        // policy name; "Baseline" = no DVFS
	migrate int           // Config.MigrateEvery
	faults  *fault.Config // the fault scenario, nil for none
	epochs  int
	wall    uint64
	cpu     uint64
	l2      uint64
	mem     uint64
	rest    uint64
	total   uint64 // TotalInstructions
	apps    []goldenApp
}

var goldenRuns = []goldenRun{
	{
		mix: "MID1", policy: "Baseline", epochs: 2,
		wall: 0x3f7f09b4773de383,
		cpu:  0x3ff5b586197babf4, l2: 0x3fc1f5e7b0605a56,
		mem: 0x3fe795431af4547c, rest: 0x3fd41f7722a448d4,
		total: 274463580,
		apps: []goldenApp{
			{"ammp", 16000000, 0x3f7f09b4773de383},
			{"gap", 18230699, 0x3f7b3c4871fcd278},
			{"wupwise", 18309966, 0x3f7b1dfbcb374d34},
			{"vpr", 16075230, 0x3f7ee1e406b1f712},
		},
	},
	{
		mix: "MID1", policy: "CoScale", epochs: 2,
		wall: 0x3f80de8640c3d2c9,
		cpu:  0x3ff45bafdf462b42, l2: 0x3fc37be0f747576b,
		mem: 0x3fe09d104f9c7715, rest: 0x3fd5dfafc9bd1075,
		total: 275573180,
		apps: []goldenApp{
			{"ammp", 15999999, 0x3f80de8640c3d2c9},
			{"gap", 18380587, 0x3f7d5dc8390af95a},
			{"wupwise", 18447037, 0x3f7d428b7318ef0e},
			{"vpr", 16065672, 0x3f80cbaa11f29521},
		},
	},
	{
		mix: "MEM1", policy: "CoScale", epochs: 7,
		wall: 0x3fa1e2efe9abbc58,
		cpu:  0x4002c488e2eff470, l2: 0x3fe4ff225cb240e8,
		mem: 0x40103c2b2dbe47fb, rest: 0x3ff7315aed4959c3,
		total: 417605452,
		apps: []goldenApp{
			{"swim", 28171871, 0x3f941c97f4fc26a2},
			{"applu", 16000000, 0x3fa1e2efe9abbc58},
			{"galgel", 42287180, 0x3f8afbce6d4386a8},
			{"equake", 17942312, 0x3fa005c6439144d2},
		},
	},
	{
		mix: "MID1", policy: "MemScale", epochs: 2,
		wall: 0x3f809d0591ed5138,
		cpu:  0x3ff697470b8be6c4, l2: 0x3fc332abaab0cc5f,
		mem: 0x3fde4199db0616ba, rest: 0x3fd58ac065534b70,
		total: 277002516,
		apps: []goldenApp{
			{"ammp", 16000000, 0x3f809d0591ed5138},
			{"gap", 18537474, 0x3f7ca94f5cb53292},
			{"wupwise", 18562883, 0x3f7c9ef3af22ad37},
			{"vpr", 16150272, 0x3f80725781d146c5},
		},
	},
	{
		mix: "MID1", policy: "CPUOnly", epochs: 2,
		wall: 0x3f80c15a470e7447,
		cpu:  0x3ff20e21e1b79740, l2: 0x3fc35a606e2e5871,
		mem: 0x3fe9327e400258cb, rest: 0x3fd5b9dc50309be3,
		total: 273988616,
		apps: []goldenApp{
			{"ammp", 16045301, 0x3f80b53bd6a942c9},
			{"gap", 18161955, 0x3f7d8519dbdfb276},
			{"wupwise", 18289898, 0x3f7d504337210e93},
			{"vpr", 16000000, 0x3f80c15a470e7447},
		},
	},
	{
		mix: "MID1", policy: "Uncoordinated", epochs: 2,
		wall: 0x3f81c79ac7b75560,
		cpu:  0x3ff2ad05d7c2073e, l2: 0x3fc48273bebd83d0,
		mem: 0x3fdff2ce8f30a83d, rest: 0x3fd70de9fa6e9363,
		total: 275580272,
		apps: []goldenApp{
			{"ammp", 16000000, 0x3f81c79ac7b75560},
			{"gap", 18395120, 0x3f7eeab7500e8b56},
			{"wupwise", 18472362, 0x3f7ec96459b3196b},
			{"vpr", 16027586, 0x3f81bf3ea2a74370},
		},
	},
	{
		mix: "MID1", policy: "Semi-coordinated", epochs: 2,
		wall: 0x3f80f330ba0ef323,
		cpu:  0x3ff3f21fbaa07413, l2: 0x3fc393391f3abb9a,
		mem: 0x3fe32f1433fdc834, rest: 0x3fd5fa7bc4e1e438,
		total: 274990288,
		apps: []goldenApp{
			{"ammp", 16000000, 0x3f80f330ba0ef323},
			{"gap", 18327751, 0x3f7dee9b8e82fd4b},
			{"wupwise", 18405983, 0x3f7dd0f040e7f2cb},
			{"vpr", 16013838, 0x3f80ef874f9ac96b},
		},
	},
	{
		mix: "MID1", policy: "Semi-coordinated-OoP", epochs: 2,
		wall: 0x3f80d84f7fe24a22,
		cpu:  0x3ff21c486ff6c8fd, l2: 0x3fc37446526e8094,
		mem: 0x3fe7a087c3d475a2, rest: 0x3fd5d7a11c6fa981,
		total: 274155984,
		apps: []goldenApp{
			{"ammp", 16044398, 0x3f80cc41249a8e2b},
			{"gap", 18185475, 0x3f7d9c5d2d5acede},
			{"wupwise", 18309123, 0x3f7d684b8bd90c86},
			{"vpr", 16000000, 0x3f80d84f7fe24a22},
		},
	},
	{
		mix: "MID1", policy: "Offline", epochs: 2,
		wall: 0x3f80de8640c3d2c9,
		cpu:  0x3ff45bafdf462b42, l2: 0x3fc37be0f747576b,
		mem: 0x3fe09d104f9c7715, rest: 0x3fd5dfafc9bd1075,
		total: 275573180,
		apps: []goldenApp{
			{"ammp", 15999999, 0x3f80de8640c3d2c9},
			{"gap", 18380587, 0x3f7d5dc8390af95a},
			{"wupwise", 18447037, 0x3f7d428b7318ef0e},
			{"vpr", 16065672, 0x3f80cbaa11f29521},
		},
	},
	{
		mix: "MEM1", policy: "MemScale", epochs: 7,
		wall: 0x3fa1245ab9a07e61,
		cpu:  0x4010eefeebd66f13, l2: 0x3fe42c0bc4326c4d,
		mem: 0x400c50b6c9f873ee, rest: 0x3ff63a3b9d11d03e,
		total: 424138064,
		apps: []goldenApp{
			{"swim", 28645670, 0x3f92f015f4e0fad3},
			{"applu", 15999999, 0x3fa1245ab9a07e61},
			{"galgel", 43404004, 0x3f892096381df68a},
			{"equake", 17984843, 0x3f9ea18cb9ce0e62},
		},
	},
	{
		mix: "MEM1", policy: "CPUOnly", epochs: 7,
		wall: 0x3fa1df19bc8d2798,
		cpu:  0x4001e101c99ad7c9, l2: 0x3fe4fab74f1306e5,
		mem: 0x4010a8b012b53d7b, rest: 0x3ff72c615f27aba8,
		total: 417286900,
		apps: []goldenApp{
			{"swim", 28126634, 0x3f940edb135779f1},
			{"applu", 16000000, 0x3fa1df19bc8d2798},
			{"galgel", 42245855, 0x3f8ad8e12da8a439},
			{"equake", 17949236, 0x3fa000302c2acdd1},
		},
	},
	{
		mix: "MEM1", policy: "Uncoordinated", epochs: 8,
		wall: 0x3fa2e834ec39a08e,
		cpu:  0x4003a23200e801b1, l2: 0x3fe62a2b6e2fc5d7,
		mem: 0x400d1d87260e2916, rest: 0x3ff884227d6607a5,
		total: 427705332,
		apps: []goldenApp{
			{"swim", 28620780, 0x3f94b64f48141d4a},
			{"applu", 16000000, 0x3fa2e834ec39a08e},
			{"galgel", 44271514, 0x3f8b1133e0990c7c},
			{"equake", 18034039, 0x3fa0d13e7b62dad5},
		},
	},
	{
		mix: "MEM1", policy: "Semi-coordinated", epochs: 8,
		wall: 0x3fa20175c89d5cb5,
		cpu:  0x4005a7c2709eeb6c, l2: 0x3fe521f1ccc3aa1b,
		mem: 0x400eb92b017989ec, rest: 0x3ff758eee9ad5383,
		total: 418796856,
		apps: []goldenApp{
			{"swim", 28245978, 0x3f93e1552e0df772},
			{"applu", 15999999, 0x3fa20175c89d5cb5},
			{"galgel", 42508706, 0x3f8acc5eef46178d},
			{"equake", 17944531, 0x3f9ff3307b0ba43c},
		},
	},
	{
		mix: "MEM1", policy: "Semi-coordinated-OoP", epochs: 7,
		wall: 0x3fa1dabe54ccee27,
		cpu:  0x40052e4bd9c99bc0, l2: 0x3fe4f6750b4df4ca,
		mem: 0x400e706ef2fae06e, rest: 0x3ff726bb1017612c,
		total: 418500084,
		apps: []goldenApp{
			{"swim", 28215356, 0x3f93fb52d4993566},
			{"applu", 16000000, 0x3fa1dabe54ccee27},
			{"galgel", 42419190, 0x3f8ab97520c6e027},
			{"equake", 17990475, 0x3f9fcf01f2784eec},
		},
	},
	{
		mix: "MEM1", policy: "Offline", epochs: 7,
		wall: 0x3fa1e1869e5829c6,
		cpu:  0x40037dfc3511321f, l2: 0x3fe4fdaea3b36dfc,
		mem: 0x400f9e0df1bdd15c, rest: 0x3ff72f8672ddd696,
		total: 417817448,
		apps: []goldenApp{
			{"swim", 28149751, 0x3f9410ddb5d7741f},
			{"applu", 15999999, 0x3fa1e1869e5829c6},
			{"galgel", 42327509, 0x3f8ac1db51c38250},
			{"equake", 17977103, 0x3f9ff574a249e8a5},
		},
	},
	{
		mix: "MIX2", policy: "MemScale", epochs: 3,
		wall: 0x3f8af9350a2b3516,
		cpu:  0x40023d724eee8e47, l2: 0x3fcf591d885b0879,
		mem: 0x3fea0d87775d4920, rest: 0x3fe17ce0410bcca6,
		total: 456899816,
		apps: []goldenApp{
			{"milc", 16000000, 0x3f8af9350a2b3516},
			{"gobmk", 34414028, 0x3f7905c5a3758aa6},
			{"facerec", 24789800, 0x3f81037c7d4f96ed},
			{"perlbmk", 39021126, 0x3f761fbf9db44667},
		},
	},
	{
		mix: "MIX2", policy: "CPUOnly", epochs: 3,
		wall: 0x3f8b0564adc04c3f,
		cpu:  0x3ffc3620542353a3, l2: 0x3fcf5c1452889409,
		mem: 0x3ff3bcb31721c023, rest: 0x3fe184c6d1edbd5f,
		total: 437489656,
		apps: []goldenApp{
			{"milc", 15999999, 0x3f8b0564adc04c3f},
			{"gobmk", 32589393, 0x3f79f14ebc30626a},
			{"facerec", 24326297, 0x3f81379079aceb7d},
			{"perlbmk", 36456725, 0x3f77174f4b94de74},
		},
	},
	{
		mix: "MIX2", policy: "Uncoordinated", epochs: 3,
		wall: 0x3f8d165868bfe5c1,
		cpu:  0x3ffd81ee5936b6b5, l2: 0x3fd0db71b3947bbd,
		mem: 0x3fea6ab8def53777, rest: 0x3fe2dbb6c234bbc6,
		total: 452489292,
		apps: []goldenApp{
			{"milc", 16000000, 0x3f8d165868bfe5c1},
			{"gobmk", 33912120, 0x3f7b58c8c8c4c295},
			{"facerec", 24978018, 0x3f82429d293fe98c},
			{"perlbmk", 38232185, 0x3f785052d2d13e25},
		},
	},
	{
		mix: "MIX2", policy: "Semi-coordinated", epochs: 3,
		wall: 0x3f8b30b84731c424,
		cpu:  0x3ffff456939362d5, l2: 0x3fcf9133eeda956c,
		mem: 0x3fef9f30b6e0fb58, rest: 0x3fe1a0dddfa6aa40,
		total: 446671848,
		apps: []goldenApp{
			{"milc", 16000000, 0x3f8b30b84731c424},
			{"gobmk", 33529215, 0x3f79e83b98c0f132},
			{"facerec", 24374325, 0x3f81552d87e30a6e},
			{"perlbmk", 37764422, 0x3f7723b90a170359},
		},
	},
	{
		mix: "MIX2", policy: "Semi-coordinated-OoP", epochs: 3,
		wall: 0x3f8ab24709f78f9e,
		cpu:  0x3ffe03b689f6b3c3, l2: 0x3fcefaee3c72252e,
		mem: 0x3fefd827067980dc, rest: 0x3fe14ee3d120edbe,
		total: 437619488,
		apps: []goldenApp{
			{"milc", 15999999, 0x3f8ab24709f78f9e},
			{"gobmk", 32536335, 0x3f79cd9e6177a8a1},
			{"facerec", 24297820, 0x3f8176126e51f493},
			{"perlbmk", 36570718, 0x3f77088959d70be8},
		},
	},
	{
		mix: "MIX2", policy: "Offline", epochs: 3,
		wall: 0x3f8b111968e28896,
		cpu:  0x3ffeb3fb18313175, l2: 0x3fcf68ebd6a035e0,
		mem: 0x3feadaf7dc68f5b0, rest: 0x3fe18c5db35c4181,
		total: 434868476,
		apps: []goldenApp{
			{"milc", 16000000, 0x3f8b111968e28896},
			{"gobmk", 32202467, 0x3f7a44bc4b68fdd7},
			{"facerec", 24256796, 0x3f8163cfc89b10c0},
			{"perlbmk", 36257856, 0x3f773dbda160e8c4},
		},
	},
	{
		mix: "MEM1", policy: "CoScale", migrate: 1, epochs: 7,
		wall: 0x3fa1e8afa3558fd2,
		cpu:  0x4002b7bde501b3ea, l2: 0x3fe505b7dabf512e,
		mem: 0x401066fb18fe3897, rest: 0x3ff738cf4393a371,
		total: 417872068,
		apps: []goldenApp{
			{"swim", 28212331, 0x3f94164ed41edd0f},
			{"swim", 28212331, 0x3f94164ed41edd0f},
			{"swim", 28144318, 0x3f94164ed41edd0f},
			{"swim", 28162229, 0x3f9411d482224c49},
			{"applu", 16014741, 0x3fa1e4b65785c428},
			{"applu", 16014741, 0x3fa1e4b65785c428},
			{"applu", 16014741, 0x3fa1e4b65785c428},
			{"applu", 16000000, 0x3fa1e8afa3558fd2},
			{"galgel", 42253435, 0x3f8b061a23dc3098},
			{"galgel", 42253435, 0x3f8b061a23dc3098},
			{"galgel", 42299608, 0x3f8b061a23dc3098},
			{"galgel", 42360341, 0x3f8b193c3020daf7},
			{"equake", 17992539, 0x3fa001b9e8345965},
			{"equake", 17992539, 0x3fa001b9e8345965},
			{"equake", 17974105, 0x3fa0028355245f18},
			{"equake", 17970634, 0x3fa00366d0a03615},
		},
	},
	{
		mix: "MIX2", policy: "Offline", migrate: 1, epochs: 3,
		wall: 0x3f8b17a64ce9c7d1,
		cpu:  0x3ffeba1a5d8dfb6e, l2: 0x3fcf6fd24b6abe4f,
		mem: 0x3feade083518d499, rest: 0x3fe1909ce281618a,
		total: 435001675,
		apps: []goldenApp{
			{"milc", 16000000, 0x3f8b17a64ce9c7d1},
			{"milc", 16000000, 0x3f8b17a64ce9c7d1},
			{"milc", 16000000, 0x3f8b17a64ce9c7d1},
			{"milc", 16023320, 0x3f8b0a3594b713f4},
			{"gobmk", 32185537, 0x3f7a44bc4b68fdd7},
			{"gobmk", 32185537, 0x3f7a44bc4b68fdd7},
			{"gobmk", 32185537, 0x3f7a44bc4b68fdd7},
			{"gobmk", 32146233, 0x3f7a44bc4b68fdd7},
			{"facerec", 24240278, 0x3f81691c3e029218},
			{"facerec", 24240278, 0x3f81691c3e029218},
			{"facerec", 24240278, 0x3f81691c3e029218},
			{"facerec", 24643857, 0x3f81691c3e029218},
			{"perlbmk", 36237937, 0x3f773dbda160e8c4},
			{"perlbmk", 36237937, 0x3f773dbda160e8c4},
			{"perlbmk", 36237937, 0x3f773dbda160e8c4},
			{"perlbmk", 36197009, 0x3f773dbda160e8c4},
		},
	},
	{
		mix: "MEM1", policy: "CoScale", faults: goldenFaults(), epochs: 8,
		wall: 0x3fa1eda569c32743,
		cpu:  0x4003c058c7ec55e8, l2: 0x3fe50bc619256871,
		mem: 0x401091a214ff2357, rest: 0x3ff73f3dbd311a28,
		total: 417743911,
		apps: []goldenApp{
			{"swim", 27712180, 0x3f9447d5838b9b6f},
			{"swim", 28449878, 0x3f93fbd3c7a1b485},
			{"swim", 27688470, 0x3f944d38041b198a},
			{"swim", 28483637, 0x3f93ec13c092ce66},
			{"applu", 16048340, 0x3fa1e09567680180},
			{"applu", 15999999, 0x3fa1eda569c32743},
			{"applu", 16040011, 0x3fa1e307553db89e},
			{"applu", 16048340, 0x3fa1e09567680180},
			{"galgel", 42058466, 0x3f89f58c5fc2c3a1},
			{"galgel", 42058466, 0x3f89f58c5fc2c3a1},
			{"galgel", 42199870, 0x3f89f58c5fc2c3a1},
			{"galgel", 42493241, 0x3f8a1dd6d4616cb3},
			{"equake", 17804139, 0x3fa0290b9d4e6446},
			{"equake", 18476502, 0x3f9f76d2204d8291},
			{"equake", 18327271, 0x3f9f40bfc757e3aa},
			{"equake", 17855101, 0x3fa025e466885bf4},
		},
	},
	{
		mix: "MEM1", policy: "CoScale-PowerCap", epochs: 7,
		wall: 0x3fa1d98e7d40c300,
		cpu:  0x400caf9cda5ebe30, l2: 0x3fe4f5e849a9a56c,
		mem: 0x400bb1829943cb3f, rest: 0x3ff7253114c20de9,
		total: 420139496,
		apps: []goldenApp{
			{"swim", 28308510, 0x3f93f96f37523c75},
			{"swim", 28308510, 0x3f93f96f37523c75},
			{"swim", 28308510, 0x3f93f96f37523c75},
			{"swim", 28308510, 0x3f93f96f37523c75},
			{"applu", 16000000, 0x3fa1d98e7d40c300},
			{"applu", 16000000, 0x3fa1d98e7d40c300},
			{"applu", 16034986, 0x3fa1d021b16ec14d},
			{"applu", 16046250, 0x3fa1cd18de6315c8},
			{"galgel", 42712193, 0x3f8a8dc7c33559b0},
			{"galgel", 42712193, 0x3f8a8dc7c33559b0},
			{"galgel", 42712193, 0x3f8a8dc7c33559b0},
			{"galgel", 42712193, 0x3f8a8dc7c33559b0},
			{"equake", 17955666, 0x3f9fe050064dd68c},
			{"equake", 17955506, 0x3f9febd0e7daac51},
			{"equake", 18032138, 0x3f9fcc27d4f712bb},
			{"equake", 18032138, 0x3f9fcc27d4f712bb},
		},
	},
	{
		mix: "MEM1", policy: "CoScale-Hardened", faults: goldenStale(), epochs: 7,
		wall: 0x3fa183061264a7cd,
		cpu:  0x4007b408dcf2a903, l2: 0x3fe49229271c3cc0,
		mem: 0x400fdbc6ee78873e, rest: 0x3ff6b4fcc7a2f178,
		total: 416610164,
		apps: []goldenApp{
			{"swim", 28018030, 0x3f9360ffcb22dfe4},
			{"swim", 28018030, 0x3f9360ffcb22dfe4},
			{"swim", 28018030, 0x3f9360ffcb22dfe4},
			{"swim", 28018030, 0x3f9360ffcb22dfe4},
			{"applu", 16000000, 0x3fa183061264a7cd},
			{"applu", 16000000, 0x3fa183061264a7cd},
			{"applu", 16000000, 0x3fa183061264a7cd},
			{"applu", 16000000, 0x3fa183061264a7cd},
			{"galgel", 41995238, 0x3f8a0cabd35824d9},
			{"galgel", 41995238, 0x3f8a0cabd35824d9},
			{"galgel", 41995238, 0x3f8a0cabd35824d9},
			{"galgel", 41995238, 0x3f8a0cabd35824d9},
			{"equake", 18139273, 0x3f9f2d1199d6134b},
			{"equake", 18139273, 0x3f9f2d1199d6134b},
			{"equake", 18139273, 0x3f9f2d1199d6134b},
			{"equake", 18139273, 0x3f9f2d1199d6134b},
		},
	},
}

func goldenConfig(t *testing.T, g goldenRun) Config {
	t.Helper()
	cfg := Config{Mix: workload.MustGet(g.mix), InstrBudget: 16_000_000, MigrateEvery: g.migrate}
	cfg.Faults = g.faults
	cfg.Policy = goldenPolicy(g.policy, cfg.PolicyConfig())
	return cfg
}

// goldenFaults is the fault-injected rows' scenario: noisy counters and an
// actuator that lags one epoch and often sticks, so the settings the engine
// runs at differ from the ones the policy asked for.
func goldenFaults() *fault.Config {
	return &fault.Config{
		Seed:      0x5EED,
		Counters:  fault.CounterFaults{Noise: 0.05},
		Actuation: fault.ActuationFaults{LagEpochs: 1, StuckProb: 0.3, StuckEpochs: 2},
	}
}

// goldenStale is the Hardened row's scenario: half of all counter windows
// repeat the previous reading, so the watchdog both trips and keeps feeding
// the sane epochs to CoScale and to its own deficit tracker.
func goldenStale() *fault.Config {
	return &fault.Config{Seed: 0x5EED, Counters: fault.CounterFaults{StaleProb: 0.5}}
}

// goldenCapW is the PowerCap row's budget: about 85% of MEM1's mean
// uncapped power at the golden budget, so the cap binds.
const goldenCapW = 262

// goldenPolicy builds a fresh controller by name (nil for the no-DVFS
// baseline); the names are the experiments package's.
func goldenPolicy(name string, cfg policy.Config) policy.Policy {
	switch name {
	case "Baseline":
		return nil
	case "CoScale":
		return must(core.New(cfg))
	case "MemScale":
		return must(policy.NewMemScale(cfg))
	case "CPUOnly":
		return must(policy.NewCPUOnly(cfg))
	case "Uncoordinated":
		return must(policy.NewUncoordinated(cfg))
	case "Semi-coordinated", "Semi-coordinated-OoP":
		p := must(policy.NewSemiCoordinated(cfg))
		p.OutOfPhase = name == "Semi-coordinated-OoP"
		return p
	case "Offline":
		return must(policy.NewOffline(cfg))
	case "CoScale-PowerCap":
		return must(core.NewPowerCap(cfg, goldenCapW))
	case "CoScale-Hardened":
		return must(policy.Harden(cfg, must(core.New(cfg))))
	}
	panic("golden: unknown policy " + name)
}

// name labels a golden row's subtest.
func (g goldenRun) name() string {
	n := g.mix + "/" + g.policy
	if g.migrate > 0 {
		n += fmt.Sprintf("/migrate%d", g.migrate)
	}
	if g.faults != nil {
		n += "/faults"
	}
	return n
}

func checkGolden(t *testing.T, g goldenRun, res *Result) {
	t.Helper()
	if res.Epochs != g.epochs {
		t.Errorf("epochs = %d, want %d", res.Epochs, g.epochs)
	}
	checkBits := func(name string, got float64, want uint64) {
		t.Helper()
		if math.Float64bits(got) != want {
			t.Errorf("%s = %v (%#x), want bits %#x", name, got, math.Float64bits(got), want)
		}
	}
	checkBits("WallTime", res.WallTime, g.wall)
	checkBits("Energy.CPU", res.Energy.CPU, g.cpu)
	checkBits("Energy.L2", res.Energy.L2, g.l2)
	checkBits("Energy.Mem", res.Energy.Mem, g.mem)
	checkBits("Energy.Rest", res.Energy.Rest, g.rest)
	if res.TotalInstructions != g.total {
		t.Errorf("TotalInstructions = %d, want %d", res.TotalInstructions, g.total)
	}
	copies := len(res.Apps) / len(g.apps)
	for i, a := range res.Apps {
		want := g.apps[i/copies]
		if a.App != want.name {
			t.Errorf("app[%d] = %s, want %s", i, a.App, want.name)
			continue
		}
		if a.Instructions != want.instr {
			t.Errorf("app[%d] %s instructions = %d, want %d", i, a.App, a.Instructions, want.instr)
		}
		checkBits("app "+a.App+" finish", a.FinishTime, want.finish)
	}
}

// TestGoldenBitIdentical replays the captured runs on a fresh engine.
func TestGoldenBitIdentical(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name(), func(t *testing.T) {
			cfg := goldenConfig(t, g)
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g, res)
			checkTripped(t, cfg.Policy)
		})
	}
}

// checkTripped asserts that a hardened row's watchdog tripped at least once,
// so the row pins the failsafe hold as well as the deficit tracker.
func checkTripped(t *testing.T, p policy.Policy) {
	t.Helper()
	if h, ok := p.(*policy.Hardened); ok && h.Stats().Trips == 0 {
		t.Errorf("%s never tripped: %+v", h.Name(), h.Stats())
	}
}

// TestGoldenBitIdenticalAfterReset replays each captured run twice on ONE
// engine via Reset (+ a fresh policy, since controllers carry state): the
// warmed scratch buffers must not perturb a single bit of the result.
func TestGoldenBitIdenticalAfterReset(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name(), func(t *testing.T) {
			cfg := goldenConfig(t, g)
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			eng.Reset()
			p := goldenPolicy(g.policy, cfg.PolicyConfig())
			eng.SetPolicy(p)
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g, res)
			checkTripped(t, p)
		})
	}
}
