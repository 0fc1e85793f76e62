/**
 * @file
 * Minimal JSON value, reader and writer for exion_bench's own files:
 * the results file it writes, the results files --compare reads back,
 * the repository's BENCHMARK.json (metric bounds) and the job id in an
 * HttpFront 201 body. Objects keep insertion order.
 */

#ifndef EXION_BENCH_JSON_H_
#define EXION_BENCH_JSON_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace exion::bench
{

struct Json
{
    enum class Kind
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj;

    static Json number(double v)
    {
        Json j;
        j.kind = Kind::Num;
        j.num = v;
        return j;
    }
    static Json string(std::string v)
    {
        Json j;
        j.kind = Kind::Str;
        j.str = std::move(v);
        return j;
    }
    static Json flag(bool v)
    {
        Json j;
        j.kind = Kind::Bool;
        j.boolean = v;
        return j;
    }
    static Json array()
    {
        Json j;
        j.kind = Kind::Arr;
        return j;
    }
    static Json object()
    {
        Json j;
        j.kind = Kind::Obj;
        return j;
    }

    /** Member of an object, nullptr when absent or not an object. */
    const Json *find(const std::string &key) const
    {
        if (kind != Kind::Obj)
            return nullptr;
        for (const auto &[k, v] : obj)
            if (k == key)
                return &v;
        return nullptr;
    }

    /** Appends (or replaces) an object member; returns it. */
    Json &set(const std::string &key, Json value)
    {
        kind = Kind::Obj;
        for (auto &[k, v] : obj)
            if (k == key)
                return v = std::move(value);
        obj.emplace_back(key, std::move(value));
        return obj.back().second;
    }

    /** Number member, or fallback when absent or not a number. */
    double numberOr(const std::string &key, double fallback) const
    {
        const Json *v = find(key);
        return v && v->kind == Kind::Num ? v->num : fallback;
    }

    /** String member, or fallback when absent or not a string. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const
    {
        const Json *v = find(key);
        return v && v->kind == Kind::Str ? v->str : fallback;
    }
};

/** Shortest text that reads back as exactly v (non-finite -> null). */
inline std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

inline void
writeJsonString(const std::string &s, std::string &out)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof hex, "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** Compact serialisation (no whitespace). */
inline void
writeJson(const Json &j, std::string &out)
{
    switch (j.kind) {
      case Json::Kind::Null:
        out += "null";
        return;
      case Json::Kind::Bool:
        out += j.boolean ? "true" : "false";
        return;
      case Json::Kind::Num:
        out += formatNumber(j.num);
        return;
      case Json::Kind::Str:
        writeJsonString(j.str, out);
        return;
      case Json::Kind::Arr:
        out += '[';
        for (size_t i = 0; i < j.arr.size(); ++i) {
            if (i)
                out += ", ";
            writeJson(j.arr[i], out);
        }
        out += ']';
        return;
      case Json::Kind::Obj:
        out += '{';
        for (size_t i = 0; i < j.obj.size(); ++i) {
            if (i)
                out += ", ";
            writeJsonString(j.obj[i].first, out);
            out += ": ";
            writeJson(j.obj[i].second, out);
        }
        out += '}';
        return;
    }
}

inline std::string
toJson(const Json &j)
{
    std::string out;
    writeJson(j, out);
    return out;
}

namespace detail
{

class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : s_(text) {}

    bool parseDocument(Json &out, std::string &err)
    {
        if (!value(out, 0)) {
            err = err_ + " at offset " + std::to_string(pos_);
            return false;
        }
        ws();
        if (pos_ != s_.size()) {
            err = "trailing content at offset " + std::to_string(pos_);
            return false;
        }
        return true;
    }

  private:
    void ws()
    {
        while (pos_ < s_.size()
               && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r'
                   || s_[pos_] == '\t'))
            ++pos_;
    }

    bool fail(const char *what)
    {
        err_ = what;
        return false;
    }

    bool literal(const char *word)
    {
        const std::string w(word);
        if (s_.compare(pos_, w.size(), w) != 0)
            return fail("malformed literal");
        pos_ += w.size();
        return true;
    }

    bool string(std::string &out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return fail("unterminated escape");
                const char e = s_[pos_++];
                switch (e) {
                  case '"':
                  case '\\':
                  case '/':
                    c = e;
                    break;
                  case 'n':
                    c = '\n';
                    break;
                  case 't':
                    c = '\t';
                    break;
                  case 'r':
                    c = '\r';
                    break;
                  case 'b':
                    c = '\b';
                    break;
                  case 'f':
                    c = '\f';
                    break;
                  case 'u': {
                    // Only the \u00XX escapes the writer emits.
                    if (pos_ + 4 > s_.size())
                        return fail("short \\u escape");
                    unsigned v = 0;
                    const auto res = std::from_chars(
                        s_.data() + pos_, s_.data() + pos_ + 4, v, 16);
                    if (res.ptr != s_.data() + pos_ + 4 || v > 0x7f)
                        return fail("unsupported \\u escape");
                    c = static_cast<char>(v);
                    pos_ += 4;
                    break;
                  }
                  default:
                    return fail("bad escape");
                }
            }
            out += c;
        }
        if (pos_ >= s_.size())
            return fail("unterminated string");
        ++pos_;
        return true;
    }

    bool value(Json &out, int depth)
    {
        if (depth > 64)
            return fail("nesting too deep");
        ws();
        if (pos_ >= s_.size())
            return fail("unexpected end");
        const char c = s_[pos_];
        if (c == '{') {
            out = Json::object();
            ++pos_;
            ws();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                ws();
                std::string key;
                if (!string(key))
                    return false;
                ws();
                if (pos_ >= s_.size() || s_[pos_] != ':')
                    return fail("expected ':'");
                ++pos_;
                Json v;
                if (!value(v, depth + 1))
                    return false;
                out.obj.emplace_back(std::move(key), std::move(v));
                ws();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < s_.size() && s_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            out = Json::array();
            ++pos_;
            ws();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                Json v;
                if (!value(v, depth + 1))
                    return false;
                out.arr.push_back(std::move(v));
                ws();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < s_.size() && s_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out = Json::string("");
            return string(out.str);
        }
        if (c == 't') {
            out = Json::flag(true);
            return literal("true");
        }
        if (c == 'f') {
            out = Json::flag(false);
            return literal("false");
        }
        if (c == 'n') {
            out = Json();
            return literal("null");
        }
        double v = 0.0;
        const auto res =
            std::from_chars(s_.data() + pos_, s_.data() + s_.size(), v);
        if (res.ec != std::errc() || res.ptr == s_.data() + pos_)
            return fail("malformed value");
        pos_ = static_cast<size_t>(res.ptr - s_.data());
        out = Json::number(v);
        return true;
    }

    const std::string &s_;
    size_t pos_ = 0;
    std::string err_;
};

} // namespace detail

/** Parses a whole JSON document; false with a diagnostic in err. */
inline bool
parseJson(const std::string &text, Json &out, std::string &err)
{
    return detail::JsonReader(text).parseDocument(out, err);
}

} // namespace exion::bench

#endif // EXION_BENCH_JSON_H_
