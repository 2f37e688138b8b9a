package obs_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/server"
)

// fill gives every leaf reachable from v a distinct sentinel: numbers
// count up from base, strings are "s<n>", bools are base < 5000. Pointers
// are allocated, maps get one entry "k", and slices two elements whose
// merge:"key" field is the same in every fill (so two fills merge element
// by element) while staying distinct within one slice.
func fill(v reflect.Value, base uint64, n *uint64) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), base, n)
	case reflect.Struct:
		for i := range v.NumField() {
			fill(v.Field(i), base, n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range 2 {
			e := v.Index(i)
			fill(e, base, n)
			for j := range e.NumField() {
				if e.Type().Field(j).Tag.Get("merge") != "key" {
					continue
				}
				if k := e.Field(j); k.Kind() == reflect.String {
					k.SetString(fmt.Sprintf("key%d", i))
				} else {
					k.SetUint(uint64(i + 1))
				}
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			fill(v.Index(i), base, n)
		}
	case reflect.Map:
		e := reflect.New(v.Type().Elem()).Elem()
		fill(e, base, n)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(reflect.ValueOf("k"), e)
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d", base+*n))
	case reflect.Bool:
		v.SetBool(base < 5000)
	case reflect.Float32, reflect.Float64:
		*n++
		v.SetFloat(float64(base + *n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*n++
		v.SetInt(int64(base + *n))
	default:
		*n++
		v.SetUint(base + *n)
	}
}

func sentinel[T any](base uint64) T {
	var v T
	var n uint64
	fill(reflect.ValueOf(&v).Elem(), base, &n)
	return v
}

// promLeaves calls fn for every prom-tagged number under v with the
// labels its enclosing structs' string fields contribute.
func promLeaves(v reflect.Value, labels []string, fn func(tag reflect.StructTag, labels []string, v reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		promLeaves(v.Elem(), labels, fn)
	case reflect.Slice:
		for i := range v.Len() {
			promLeaves(v.Index(i), labels, fn)
		}
	case reflect.Struct:
		t := v.Type()
		for i := range t.NumField() {
			if p := t.Field(i).Tag.Get("prom"); p != "" && v.Field(i).Kind() == reflect.String {
				labels = append(labels[:len(labels):len(labels)], fmt.Sprintf("%s=%q", p, v.Field(i).String()))
			}
		}
		for i := range t.NumField() {
			f, fv := t.Field(i), v.Field(i)
			switch p := f.Tag.Get("prom"); {
			case p == "-" || fv.Kind() == reflect.String:
			case fv.CanInt() || fv.CanUint() || fv.CanFloat():
				if p != "" {
					fn(f.Tag, labels, fv)
				}
			default:
				promLeaves(fv, labels, fn)
			}
		}
	}
}

// TestRenderSentinels renders sentinel-filled stats views and checks that
// each tagged field's distinct value appears in a sample of its own
// family, with its constant and element labels, and that every family has
// one HELP and a TYPE that follows its name.
func TestRenderSentinels(t *testing.T) {
	for name, v := range map[string]any{
		"server.StatsResponse":    sentinel[server.StatsResponse](1000),
		"gateway.GatewayStats":    sentinel[gateway.GatewayStats](1000),
		"[]gateway.BackendStatus": sentinel[[]gateway.BackendStatus](1000),
	} {
		var buf bytes.Buffer
		obs.Render(obs.NewPromWriter(&buf), v)
		lines := strings.Split(buf.String(), "\n")
		leaves := 0
		promLeaves(reflect.ValueOf(v), nil, func(tag reflect.StructTag, labels []string, fv reflect.Value) {
			leaves++
			family, consts, _ := strings.Cut(tag.Get("prom"), ",")
			var val float64
			switch {
			case fv.CanInt():
				val = float64(fv.Int())
			case fv.CanUint():
				val = float64(fv.Uint())
			default:
				val = fv.Float()
			}
			if strings.Contains(family, "_seconds") {
				val /= 1e9
			}
			want := append([]string(nil), labels...)
			if consts != "" {
				for _, kv := range strings.Split(consts, ",") {
					k, v, _ := strings.Cut(kv, "=")
					want = append(want, fmt.Sprintf("%s=%q", k, v))
				}
			}
			suffix := " " + strconv.FormatFloat(val, 'g', -1, 64)
			for _, l := range lines {
				if (strings.HasPrefix(l, family+"{") || strings.HasPrefix(l, family+" ")) && strings.HasSuffix(l, suffix) {
					for _, lv := range want {
						if !strings.Contains(l, lv) {
							t.Errorf("%s: %s sample %q lacks label %s", name, family, l, lv)
						}
					}
					return
				}
			}
			t.Errorf("%s: no %s sample carries the value%s", name, family, suffix)
		})
		if leaves == 0 {
			t.Fatalf("%s: no tagged fields", name)
		}
		help := map[string]int{}
		for _, l := range lines {
			if rest, ok := strings.CutPrefix(l, "# HELP "); ok {
				fam, text, _ := strings.Cut(rest, " ")
				if text == "" {
					t.Errorf("%s: %s has no help text", name, fam)
				}
				help[fam]++
			}
			if rest, ok := strings.CutPrefix(l, "# TYPE "); ok {
				fam, typ, _ := strings.Cut(rest, " ")
				if want := map[bool]string{true: "counter", false: "gauge"}[strings.HasSuffix(fam, "_total")]; typ != want {
					t.Errorf("%s: %s is a %s, want %s", name, fam, typ, want)
				}
			}
		}
		for fam, n := range help {
			if n != 1 {
				t.Errorf("%s: %s written %d times", name, fam, n)
			}
		}
	}
}

// checkMerged walks a, b and their merge m in step and checks every leaf
// against its field's merge rule.
func checkMerged(t *testing.T, path, rule string, a, b, m reflect.Value) {
	t.Helper()
	if rule == "-" {
		if !m.IsZero() {
			t.Errorf("%s: merge:\"-\" field was merged: %v", path, m)
		}
		return
	}
	switch a.Kind() {
	case reflect.Pointer:
		checkMerged(t, path, rule, a.Elem(), b.Elem(), m.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			f := a.Type().Field(i)
			checkMerged(t, path+"."+f.Name, f.Tag.Get("merge"), a.Field(i), b.Field(i), m.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if m.Len() != a.Len() {
			t.Errorf("%s: %d elements merged from %d and %d with the same keys", path, m.Len(), a.Len(), b.Len())
			return
		}
		for i := range a.Len() {
			checkMerged(t, fmt.Sprintf("%s[%d]", path, i), rule, a.Index(i), b.Index(i), m.Index(i))
		}
	case reflect.Map:
		for _, k := range a.MapKeys() {
			checkMerged(t, fmt.Sprintf("%s[%v]", path, k), rule, a.MapIndex(k), b.MapIndex(k), m.MapIndex(k))
		}
	case reflect.String:
		if m.String() != a.String() {
			t.Errorf("%s: string %q, want the first %q", path, m.String(), a.String())
		}
	case reflect.Bool:
		if m.Bool() != (a.Bool() || b.Bool()) {
			t.Errorf("%s: bool %v, want %v || %v", path, m.Bool(), a.Bool(), b.Bool())
		}
	default:
		num := func(v reflect.Value) float64 {
			switch {
			case v.CanInt():
				return float64(v.Int())
			case v.CanUint():
				return float64(v.Uint())
			}
			return v.Float()
		}
		av, bv, mv := num(a), num(b), num(m)
		want := av + bv
		switch rule {
		case "max":
			want = max(av, bv)
		case "min":
			want = min(av, bv)
		case "last", "key":
			want = bv
		}
		if mv != want {
			t.Errorf("%s: merge:%q of %v and %v gave %v, want %v", path, rule, av, bv, mv, want)
		}
	}
}

// TestMergeSentinels merges two sentinel-filled StatsResponses into an
// empty one and checks every field against its merge rule: a sums with
// a smaller b, so max, min, last and sum all differ.
func TestMergeSentinels(t *testing.T) {
	a := sentinel[server.StatsResponse](9000)
	b := sentinel[server.StatsResponse](1000)
	var m server.StatsResponse
	obs.Merge(&m, a)
	obs.Merge(&m, b)
	checkMerged(t, "StatsResponse", "", reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(m))
}

// TestMergeKeyedSlices pins where new keys go: integer keys keep the
// slice sorted, other keys are appended in first-seen order.
func TestMergeKeyedSlices(t *testing.T) {
	type call struct {
		Call  uint32 `merge:"key"`
		Count uint64
	}
	type tier struct {
		Tier  string `merge:"key"`
		Count uint64
	}
	var calls []call
	obs.Merge(&calls, []call{{Call: 9, Count: 1}, {Call: 4, Count: 1}})
	obs.Merge(&calls, []call{{Call: 2, Count: 1}, {Call: 9, Count: 2}, {Call: 11, Count: 1}})
	if fmt.Sprint(calls) != "[{2 1} {4 1} {9 3} {11 1}]" {
		t.Fatalf("integer keys: %v", calls)
	}
	var tiers []tier
	obs.Merge(&tiers, []tier{{"free", 1}, {"gold", 1}})
	obs.Merge(&tiers, []tier{{"silver", 1}, {"gold", 2}, {"bronze", 1}})
	if fmt.Sprint(tiers) != "[{free 1} {gold 3} {silver 1} {bronze 1}]" {
		t.Fatalf("string keys: %v", tiers)
	}
}
