package halo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"op2ca/internal/core"
	"op2ca/internal/hydra"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/partition"
)

// goldenDigests pins every Layout field (L2G, shell starts, core prefixes,
// ExecOrder, import ranges, export lists, localized maps, Neighbours) and
// every RIB/RCB assignment to the values of the original sort-based
// construction. Any change to set-up code must reproduce them exactly: the
// canonical execution order, the halo messages and therefore every virtual
// clock and checksum downstream depend on them. The 6k rotor mesh has tied
// RIB projections, so it also pins the partitioner's exact permutation.
var goldenDigests = map[string]string{
	"hydra/15000/kway/np1/d1":  "c4ad1a2e08756470",
	"hydra/15000/kway/np1/d2":  "566668242b52d292",
	"hydra/15000/kway/np1/d3":  "f9ab3e2a391bfa48",
	"hydra/15000/kway/np3/d1":  "5966fce0f1189b24",
	"hydra/15000/kway/np3/d2":  "88d7dd30949d2c76",
	"hydra/15000/kway/np3/d3":  "b47c273c8b3a8486",
	"hydra/15000/kway/np32/d1": "f51df38617c51e7f",
	"hydra/15000/kway/np32/d2": "35fccfd5c8551fe7",
	"hydra/15000/kway/np32/d3": "f3a80fd1aced970b",
	"hydra/15000/kway/np8/d1":  "66127093ff9ccada",
	"hydra/15000/kway/np8/d2":  "a399d6b7a080a4b4",
	"hydra/15000/kway/np8/d3":  "4df3ac7edda7115e",
	"hydra/15000/rib/np1/d1":   "c4ad1a2e08756470",
	"hydra/15000/rib/np1/d2":   "566668242b52d292",
	"hydra/15000/rib/np1/d3":   "f9ab3e2a391bfa48",
	"hydra/15000/rib/np3/d1":   "42caba9540e0ac6a",
	"hydra/15000/rib/np3/d2":   "80e9a5b44c044ec9",
	"hydra/15000/rib/np3/d3":   "f1ce19c822a1e16c",
	"hydra/15000/rib/np32/d1":  "0e5a74d12867fe8b",
	"hydra/15000/rib/np32/d2":  "4f12415065e5deb0",
	"hydra/15000/rib/np32/d3":  "ec1dc527ef0d9d12",
	"hydra/15000/rib/np8/d1":   "40fa4bcab72ca466",
	"hydra/15000/rib/np8/d2":   "ef25db973603f5c7",
	"hydra/15000/rib/np8/d3":   "6c533dece817b89f",
	"hydra/6000/kway/np1/d1":   "d5c7bef333bda1a9",
	"hydra/6000/kway/np1/d2":   "c7e9b76a25730fa5",
	"hydra/6000/kway/np1/d3":   "6419d8af5fa033b3",
	"hydra/6000/kway/np3/d1":   "22a4632fc5fceef0",
	"hydra/6000/kway/np3/d2":   "b714888244639dd0",
	"hydra/6000/kway/np3/d3":   "e47f2e9ca0685bec",
	"hydra/6000/kway/np32/d1":  "9ae90a87c7ff9a70",
	"hydra/6000/kway/np32/d2":  "1f19dbfa65294772",
	"hydra/6000/kway/np32/d3":  "71fbd73a47de81a3",
	"hydra/6000/kway/np8/d1":   "e00ba089114a53ce",
	"hydra/6000/kway/np8/d2":   "b7a5c6d06235806e",
	"hydra/6000/kway/np8/d3":   "2184362cbd7da3f8",
	"hydra/6000/rib/np1/d1":    "d5c7bef333bda1a9",
	"hydra/6000/rib/np1/d2":    "c7e9b76a25730fa5",
	"hydra/6000/rib/np1/d3":    "6419d8af5fa033b3",
	"hydra/6000/rib/np3/d1":    "3a6f82012c346769",
	"hydra/6000/rib/np3/d2":    "eec04e9493b5bc75",
	"hydra/6000/rib/np3/d3":    "c2ecf4bfa1a33dd9",
	"hydra/6000/rib/np32/d1":   "e2d8af76bac2d72f",
	"hydra/6000/rib/np32/d2":   "30d572e3c8fcdcbc",
	"hydra/6000/rib/np32/d3":   "3c6c516be9b144cd",
	"hydra/6000/rib/np8/d1":    "173ee9e4c83ee2aa",
	"hydra/6000/rib/np8/d2":    "b30d602cc76ff568",
	"hydra/6000/rib/np8/d3":    "a0b9cb171720d21f",
	"kway/15000/np1":           "2229dd56ee6c9b99",
	"kway/15000/np3":           "70f6999956ea892a",
	"kway/15000/np32":          "010fc9a98af3dea7",
	"kway/15000/np8":           "24cc9e4c11b3cdad",
	"kway/6000/np1":            "a40283b9db24bdca",
	"kway/6000/np3":            "478e16f31977045b",
	"kway/6000/np32":           "556780eaf048f02d",
	"kway/6000/np8":            "e87d4a61f1f095c4",
	"mgcfd/15000/kway/np1/d1":  "c1a5f1e1e7f83581",
	"mgcfd/15000/kway/np1/d2":  "8d8b08ee2cb1dac1",
	"mgcfd/15000/kway/np1/d3":  "84881ff12dd5f2ef",
	"mgcfd/15000/kway/np3/d1":  "1a2793579af4bb1d",
	"mgcfd/15000/kway/np3/d2":  "1a5b2316194159f2",
	"mgcfd/15000/kway/np3/d3":  "c8ec5f1e7e99ffef",
	"mgcfd/15000/kway/np32/d1": "edb34d971ce30670",
	"mgcfd/15000/kway/np32/d2": "021cc13584a39e57",
	"mgcfd/15000/kway/np32/d3": "d6a133272656f9d4",
	"mgcfd/15000/kway/np8/d1":  "6a8ad96e8128d445",
	"mgcfd/15000/kway/np8/d2":  "4be2ff880e47f7ec",
	"mgcfd/15000/kway/np8/d3":  "e6800f6a94f48c48",
	"mgcfd/15000/rib/np1/d1":   "c1a5f1e1e7f83581",
	"mgcfd/15000/rib/np1/d2":   "8d8b08ee2cb1dac1",
	"mgcfd/15000/rib/np1/d3":   "84881ff12dd5f2ef",
	"mgcfd/15000/rib/np3/d1":   "5fdf03f24de4fb60",
	"mgcfd/15000/rib/np3/d2":   "f6a1c61e3ac80e2c",
	"mgcfd/15000/rib/np3/d3":   "41fdfd1813e12f36",
	"mgcfd/15000/rib/np32/d1":  "e0790e231c24440a",
	"mgcfd/15000/rib/np32/d2":  "430d95b4482be737",
	"mgcfd/15000/rib/np32/d3":  "252fbef2c21136cf",
	"mgcfd/15000/rib/np8/d1":   "ce1ed6e2620a5111",
	"mgcfd/15000/rib/np8/d2":   "f503c57bc58c3b2a",
	"mgcfd/15000/rib/np8/d3":   "d6f674f123f2260d",
	"mgcfd/6000/kway/np1/d1":   "dcd79425af3a7f82",
	"mgcfd/6000/kway/np1/d2":   "bdcca9fcbab85e8d",
	"mgcfd/6000/kway/np1/d3":   "4fe0cd37ab3a5454",
	"mgcfd/6000/kway/np3/d1":   "6358ebda089e41a2",
	"mgcfd/6000/kway/np3/d2":   "514c2cb72c65100f",
	"mgcfd/6000/kway/np3/d3":   "065e75876da0ec2b",
	"mgcfd/6000/kway/np32/d1":  "ab67b97e2c7624d3",
	"mgcfd/6000/kway/np32/d2":  "a73e36725cdb2318",
	"mgcfd/6000/kway/np32/d3":  "0af7dc364ca5df34",
	"mgcfd/6000/kway/np8/d1":   "2ced04d07c79b95e",
	"mgcfd/6000/kway/np8/d2":   "1f6f8c4a9fc4d838",
	"mgcfd/6000/kway/np8/d3":   "a32e7aa543d00834",
	"mgcfd/6000/rib/np1/d1":    "dcd79425af3a7f82",
	"mgcfd/6000/rib/np1/d2":    "bdcca9fcbab85e8d",
	"mgcfd/6000/rib/np1/d3":    "4fe0cd37ab3a5454",
	"mgcfd/6000/rib/np3/d1":    "19cc9aaa75ea935d",
	"mgcfd/6000/rib/np3/d2":    "56db4179fbe09023",
	"mgcfd/6000/rib/np3/d3":    "eef45e81e92dc02d",
	"mgcfd/6000/rib/np32/d1":   "b6180774f0f45a68",
	"mgcfd/6000/rib/np32/d2":   "8822bf85d1f7a507",
	"mgcfd/6000/rib/np32/d3":   "ecdf001a6369cab1",
	"mgcfd/6000/rib/np8/d1":    "3f97da2b0733bb87",
	"mgcfd/6000/rib/np8/d2":    "865269593369c53e",
	"mgcfd/6000/rib/np8/d3":    "9b6d6ebc1caeb7bb",
	"rcb/15000/np1":            "2229dd56ee6c9b99",
	"rcb/15000/np3":            "beda03076c5945bb",
	"rcb/15000/np32":           "6291d3e22b635017",
	"rcb/15000/np8":            "36e12fcd10aacdf3",
	"rcb/6000/np1":             "a40283b9db24bdca",
	"rcb/6000/np3":             "63a800965b74141e",
	"rcb/6000/np32":            "07bec6c752654ff1",
	"rcb/6000/np8":             "bdf1319b4520bebb",
	"rib/15000/np1":            "2229dd56ee6c9b99",
	"rib/15000/np3":            "e611b4db9860d0c2",
	"rib/15000/np32":           "aea58c684c914c5d",
	"rib/15000/np8":            "32a2a9105cf95f37",
	"rib/6000/np1":             "a40283b9db24bdca",
	"rib/6000/np3":             "825b1dff52eebebb",
	"rib/6000/np32":            "ff959eb9814d0cf8",
	"rib/6000/np8":             "ae3ceefab18d5c7c",
}

func digestInts(h hash.Hash, xs []int32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(xs)))
	h.Write(buf[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
}

func digestLayouts(layouts []*Layout) string {
	h := sha256.New()
	for _, l := range layouts {
		digestInts(h, []int32{int32(l.Rank), int32(l.NParts), int32(l.Depth), int32(l.MaxChainLen)})
		digestInts(h, l.Neighbours)
		for _, sl := range l.Sets {
			digestInts(h, []int32{int32(sl.NOwned)})
			digestInts(h, sl.L2G)
			digestInts(h, sl.ExecStart)
			digestInts(h, sl.NonexecStart)
			digestInts(h, sl.corePrefix)
			digestInts(h, sl.ExecOrder)
			for d := 0; d < l.Depth; d++ {
				for _, imports := range [][]ImportRange{sl.ImportExec[d], sl.ImportNonexec[d]} {
					digestInts(h, []int32{int32(len(imports))})
					for _, r := range imports {
						digestInts(h, []int32{r.Rank, r.Start, r.Count})
					}
				}
				for _, exports := range [][]ExportList{sl.ExportExec[d], sl.ExportNonexec[d]} {
					digestInts(h, []int32{int32(len(exports))})
					for _, e := range exports {
						digestInts(h, []int32{e.Rank})
						digestInts(h, e.Locals)
					}
				}
			}
		}
		for _, vals := range l.Maps {
			digestInts(h, vals)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func digestAssignment(a partition.Assignment) string {
	h := sha256.New()
	digestInts(h, a)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// goldenCases computes the digest of every golden case, keyed by name.
func goldenCases(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, nodes := range []int{6000, 15000} {
		m := mesh.RotorForNodes(nodes)
		h := mesh.NewHierarchy(m, 3, true)
		type app struct {
			name     string
			prog     *core.Program
			primary  *core.Set
			maxChain int
		}
		hy := hydra.New(m)
		mg := mgcfd.New(h)
		apps := []app{
			{"hydra", hy.Prog, hy.Nodes, 6},
			{"mgcfd", mg.Prog, mg.Primary, 8},
		}
		for _, nparts := range []int{1, 3, 8, 32} {
			rib := partition.RIB(m.Coords, 3, nparts)
			got[fmt.Sprintf("rib/%d/np%d", nodes, nparts)] = digestAssignment(rib)
			got[fmt.Sprintf("rcb/%d/np%d", nodes, nparts)] = digestAssignment(partition.RCB(m.Coords, 3, nparts))
			kway := partition.KWay(m.NodeAdjacency(), nparts)
			got[fmt.Sprintf("kway/%d/np%d", nodes, nparts)] = digestAssignment(kway)
			for _, pa := range []struct {
				name   string
				assign partition.Assignment
			}{{"kway", kway}, {"rib", rib}} {
				for _, a := range apps {
					owners, err := DeriveOwnership(a.prog, a.primary, pa.assign)
					if err != nil {
						t.Fatal(err)
					}
					for depth := 1; depth <= 3; depth++ {
						key := fmt.Sprintf("%s/%d/%s/np%d/d%d", a.name, nodes, pa.name, nparts, depth)
						got[key] = digestLayouts(Build(a.prog, owners, nparts, depth, a.maxChain))
					}
				}
			}
		}
	}
	return got
}

func TestBuildGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("slow golden test")
	}
	got := goldenCases(t)
	var table strings.Builder
	bad := 0
	keys := make([]string, 0, len(got))
	for key := range got {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		d := got[key]
		fmt.Fprintf(&table, "\t%q: %q,\n", key, d)
		if goldenDigests[key] != d {
			bad++
			t.Errorf("%s: digest %s, golden %q", key, d, goldenDigests[key])
		}
	}
	if len(goldenDigests) != len(got) {
		t.Errorf("%d golden digests, %d cases", len(goldenDigests), len(got))
	}
	if bad > 0 {
		t.Logf("digests of this build:\n%s", table.String())
	}
}
