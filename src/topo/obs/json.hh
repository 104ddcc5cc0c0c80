/**
 * @file
 * Minimal JSON value model used by the observability layer.
 *
 * MetricsRegistry snapshots are serialised through JsonValue, and the
 * parser exists so tests (and tools that consume their own output) can
 * round-trip a snapshot without an external dependency. The model is
 * deliberately small: objects preserve insertion order, numbers are
 * doubles, and parse errors raise TopoError.
 */

#ifndef TOPO_OBS_JSON_HH
#define TOPO_OBS_JSON_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace topo
{

/** Tagged union over the six JSON value kinds. */
class JsonValue
{
  public:
    enum class Kind
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    /** Null value. */
    JsonValue() = default;

    /** Construct a boolean value. */
    static JsonValue boolean(bool value);
    /** Construct a numeric value. */
    static JsonValue number(double value);
    /** Construct a numeric value from a count. */
    static JsonValue
    count(std::uint64_t value)
    {
        return number(static_cast<double>(value));
    }
    /** Construct a string value. */
    static JsonValue string(std::string value);
    /** Construct an empty array. */
    static JsonValue array();
    /** Construct an empty object. */
    static JsonValue object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::kNull; }
    bool isObject() const { return kind_ == Kind::kObject; }
    bool isArray() const { return kind_ == Kind::kArray; }

    /** Boolean payload; throws TopoError on kind mismatch. */
    bool asBool() const;
    /** Numeric payload; throws TopoError on kind mismatch. */
    double asNumber() const;
    /** String payload; throws TopoError on kind mismatch. */
    const std::string &asString() const;

    /** Element/member count of an array or object (0 otherwise). */
    std::size_t size() const;

    /** Append to an array; throws TopoError on kind mismatch. */
    void push(JsonValue value);
    /** Array element; throws TopoError when out of range. */
    const JsonValue &at(std::size_t index) const;

    /** Set (or replace) an object member; returns the stored value. */
    JsonValue &set(const std::string &key, JsonValue value);
    /** Object member lookup; nullptr when absent. */
    const JsonValue *find(const std::string &key) const;
    /** Object member; throws TopoError when absent. */
    const JsonValue &at(const std::string &key) const;
    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;
    /** Array elements. */
    const std::vector<JsonValue> &elements() const;

    /**
     * Serialise with two-space indentation. @p depth is the starting
     * indentation level (used internally for nesting).
     */
    void write(std::ostream &os, int depth = 0) const;
    /** Serialised form as a string. */
    std::string toString() const;

    /** Parse a JSON document; throws TopoError on malformed input. */
    static JsonValue parse(const std::string &text);

  private:
    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> elements_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/** Write @p text as a quoted JSON string with escapes. */
void writeJsonString(std::ostream &os, const std::string &text);

} // namespace topo

#endif // TOPO_OBS_JSON_HH
