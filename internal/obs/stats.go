package obs

import (
	"fmt"
	"reflect"
	"strings"
)

// Stats structs (the /v1/stats views of the server, pool, batcher, store,
// admission, monitor telemetry and gateway) declare their Prometheus
// families and their fleet merge in struct tags, next to the json tag, so
// each statistic is defined once:
//
//	prom:"NAME[,key=value...]"  on a number: one sample of family NAME,
//	                            with the given constant labels
//	prom:"LABEL"                on a string: labels every sample of the
//	                            enclosing struct LABEL="<field value>"
//	prom:"-"                    on a struct, pointer or slice: not rendered
//	help:"TEXT"                 the family's HELP, on its first field
//	merge:"max|min|last|key|-"  how Merge folds the field (default: sum)
//
// A family whose name ends in _total is a counter, any other a gauge. A
// _seconds family reads its field in nanoseconds.

type family struct {
	name, help string
	samples    []Sample
}

type renderer struct {
	fams  []*family
	index map[string]*family
}

// Render writes every prom-tagged number reachable from v as whole
// families, in order of first appearance. A nil pointer (a feature that
// is off) contributes no families; an empty slice contributes its
// families without samples.
func Render(p *PromWriter, v any) {
	r := renderer{index: map[string]*family{}}
	r.walk(reflect.ValueOf(v), nil, true)
	for _, f := range r.fams {
		if strings.HasSuffix(f.name, "_total") {
			p.Counter(f.name, f.help, f.samples...)
		} else {
			p.Gauge(f.name, f.help, f.samples...)
		}
	}
}

func (r *renderer) walk(v reflect.Value, labels Labels, emit bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			r.walk(v.Elem(), labels, emit)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			r.walk(reflect.Zero(v.Type().Elem()), labels, false)
		}
		for i := range v.Len() {
			r.walk(v.Index(i), labels, emit)
		}
	case reflect.Struct:
		t := v.Type()
		for i := range t.NumField() {
			if tag := t.Field(i).Tag.Get("prom"); tag != "" && t.Field(i).Type.Kind() == reflect.String {
				labels = append(labels[:len(labels):len(labels)], [2]string{tag, v.Field(i).String()})
			}
		}
		for i := range t.NumField() {
			f := t.Field(i)
			switch tag := f.Tag.Get("prom"); {
			case tag == "-" || f.Type.Kind() == reflect.String:
			default:
				if n, ok := number(v.Field(i)); !ok {
					r.walk(v.Field(i), labels, emit)
				} else if tag != "" {
					r.sample(tag, f.Tag.Get("help"), labels, n, emit)
				}
			}
		}
	}
}

func (r *renderer) sample(tag, help string, labels Labels, value float64, emit bool) {
	name, consts, _ := strings.Cut(tag, ",")
	f := r.index[name]
	if f == nil {
		f = &family{name: name}
		r.index[name] = f
		r.fams = append(r.fams, f)
	}
	if help != "" {
		f.help = help
	}
	if !emit {
		return
	}
	ls := append(Labels{}, labels...)
	if consts != "" {
		for _, kv := range strings.Split(consts, ",") {
			k, v, _ := strings.Cut(kv, "=")
			ls = append(ls, [2]string{k, v})
		}
	}
	if strings.Contains(name, "_seconds") {
		value /= 1e9
	}
	f.samples = append(f.samples, Sample{Labels: ls, Value: value})
}

// number returns v's value if it is an integer or a float.
func number(v reflect.Value) (float64, bool) {
	switch {
	case v.CanInt():
		return float64(v.Int()), true
	case v.CanUint():
		return float64(v.Uint()), true
	case v.CanFloat():
		return v.Float(), true
	}
	return 0, false
}

// Merge folds src into *dst, field by field, by each field's merge tag:
//
//   - numbers sum by default; max and last keep the larger and the later
//     value, min the smaller non-zero one (0 means unset), and - leaves
//     the field alone (a mean is recomputed from its merged parts);
//   - bools OR, strings keep the first non-empty value;
//   - fixed arrays and maps merge element by element;
//   - a nil src pointer merges nothing, a nil dst pointer starts at zero;
//   - slices of structs merge element by element on their merge:"key"
//     field; a new key is appended, except that integer keys keep the
//     slice in ascending key order.
//
// Merging the views of several servers in a fixed order is deterministic.
func Merge[T any](dst *T, src T) {
	merge(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), "")
}

func merge(d, s reflect.Value, rule string) {
	if rule == "-" {
		return
	}
	switch d.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.SetInt(fold(rule, d.Int(), s.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.SetUint(fold(rule, d.Uint(), s.Uint()))
	case reflect.Float32, reflect.Float64:
		d.SetFloat(fold(rule, d.Float(), s.Float()))
	case reflect.Bool:
		d.SetBool(d.Bool() || s.Bool())
	case reflect.String:
		if d.String() == "" {
			d.SetString(s.String())
		}
	case reflect.Array:
		for i := range d.Len() {
			merge(d.Index(i), s.Index(i), rule)
		}
	case reflect.Map:
		if s.IsNil() {
			return
		}
		if d.IsNil() {
			d.Set(reflect.MakeMap(d.Type()))
		}
		for it := s.MapRange(); it.Next(); {
			acc := reflect.New(d.Type().Elem()).Elem()
			if cur := d.MapIndex(it.Key()); cur.IsValid() {
				acc.Set(cur)
			}
			merge(acc, it.Value(), rule)
			d.SetMapIndex(it.Key(), acc)
		}
	case reflect.Pointer:
		if s.IsNil() {
			return
		}
		if d.IsNil() {
			d.Set(reflect.New(d.Type().Elem()))
		}
		merge(d.Elem(), s.Elem(), rule)
	case reflect.Struct:
		for i := range d.NumField() {
			merge(d.Field(i), s.Field(i), d.Type().Field(i).Tag.Get("merge"))
		}
	case reflect.Slice:
		mergeKeyed(d, s)
	default:
		panic(fmt.Sprintf("obs.Merge: cannot merge a %s", d.Type()))
	}
}

func fold[N int64 | uint64 | float64](rule string, d, s N) N {
	switch rule {
	case "max":
		return max(d, s)
	case "min":
		if d == 0 || (s != 0 && s < d) {
			return s
		}
		return d
	case "last", "key":
		return s
	}
	return d + s
}

func mergeKeyed(d, s reflect.Value) {
	et := d.Type().Elem()
	key := -1
	for i := 0; et.Kind() == reflect.Struct && i < et.NumField(); i++ {
		if et.Field(i).Tag.Get("merge") == "key" {
			key = i
		}
	}
	if key < 0 {
		panic(fmt.Sprintf("obs.Merge: %s has no merge:\"key\" field", d.Type()))
	}
	for i := range s.Len() {
		k := s.Index(i).Field(key)
		j := 0
		for j < d.Len() && !d.Index(j).Field(key).Equal(k) {
			j++
		}
		if j == d.Len() {
			if k.CanInt() || k.CanUint() {
				for j = 0; j < d.Len() && !keyLess(k, d.Index(j).Field(key)); j++ {
				}
			}
			d.Set(reflect.Append(d, reflect.Zero(et)))
			reflect.Copy(d.Slice(j+1, d.Len()), d.Slice(j, d.Len()-1))
			d.Index(j).Set(reflect.Zero(et))
		}
		merge(d.Index(j), s.Index(i), "")
	}
}

func keyLess(a, b reflect.Value) bool {
	if a.CanInt() {
		return a.Int() < b.Int()
	}
	return a.Uint() < b.Uint()
}
